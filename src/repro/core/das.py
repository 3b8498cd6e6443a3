"""Delivery phase with the Database-as-a-Service scheme — Listing 2.

The DAS protocol (after Hacigumus et al. [13], adapted to the MMM):

1. Each source S_i partitions ``domactive(A_join)`` and maps partitions
   to index values in ``ITable_{R_i.A_join}``.
2. S_i encrypts R_i DAS-style — each tuple t becomes
   ``<etuple, a_S_join>`` with ``etuple = encrypt(t)`` (hybrid, client
   keys) and ``a_S_join`` the tuple's partition index value — and
   hybrid-encrypts the index table itself.
3. S_i sends ``<R_i^S, encrypt(ITable)>`` to the mediator.
4. The mediator forwards both encrypted index tables to the client.
5. The client decrypts the tables and translates q into the server query
   ``q_S`` (a disjunction over overlapping partition pairs) and the
   client query ``q_C``; it sends ``q_S`` to the mediator.
6. The mediator computes ``R_C = sigma_CondS(R1^S x R2^S)`` on the
   encrypted relations and returns R_C.
7. The client decrypts R_C and applies ``q_C`` (the real join-attribute
   equality) to obtain the global result.

The paper names three translator placements ("it is possible to place
the DAS query translator in any layer of the mediation system"); all
three are implemented:

* **client setting** (the paper's protocol, Listing 2) — index tables
  travel hybrid-encrypted to the client, which translates q;
* **source setting** — one datasource translates: the opposite index
  table is encrypted *for that source*, which learns it (inter-source
  leakage instead of client round trips);
* **mediator setting** — an explicitly insecure baseline where index
  tables reach the mediator in plaintext, demonstrating why the paper
  calls encrypting the index table "crucial".
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, field

from repro.core.federation import Federation
from repro.core.request import RequestPhaseOutcome
from repro.core.result import MediationResult
from repro.core.timing import timed
from repro.crypto import hybrid
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.instrumentation import count_primitives
from repro.errors import ProtocolError, StorageError
from repro.mediation.credentials import public_keys_of
from repro.relational import partition as partitioning
from repro.relational.conditions import (
    AttributeComparison,
    Comparison,
    Condition,
    conjunction,
    disjunction,
)
from repro.relational.encoding import decode_row, encode_row
from repro.relational.partition import IndexTable
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema
from repro.storage.base import (
    KIND_DAS_INDEX,
    KIND_DAS_TUPLE,
    IndexCache,
    StorageBackend,
    cache_through,
    relation_fingerprint,
    typed,
)
from repro.transport.codec import decode_value, encode_value

_decode_index_table = typed(decode_value, IndexTable)
_decode_hybrid = typed(decode_value, hybrid.HybridCiphertext)

#: Query-translator placements (Section 3.1 "settings").
CLIENT_SETTING = "client"
MEDIATOR_SETTING = "mediator"
SOURCE_SETTING = "source"


@dataclass(frozen=True)
class DASConfig:
    """Tunable parameters of the DAS delivery phase."""

    strategy: str = "equi_depth"  # equi_depth | equi_width | singleton
    buckets: int = 4
    setting: str = CLIENT_SETTING
    #: Mixed DAS model (Mykletun/Tsudik [18], discussed in Section 7):
    #: attributes listed here are *not* sensitive and travel in plaintext
    #: next to the etuple; the join attribute must stay encrypted.
    mixed_plaintext_attributes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.strategy not in ("equi_depth", "equi_width", "singleton"):
            raise ProtocolError(f"unknown partition strategy {self.strategy!r}")
        if self.setting not in (CLIENT_SETTING, MEDIATOR_SETTING, SOURCE_SETTING):
            raise ProtocolError(f"unsupported DAS setting {self.setting!r}")


@dataclass(frozen=True)
class EncryptedTuple:
    """``t^S = <etuple, a^S_join>`` — one row of an encrypted relation.

    In the mixed DAS model, ``plain_values`` additionally carries the
    non-sensitive attribute values in plaintext.
    """

    etuple: hybrid.HybridCiphertext
    index_value: int
    plain_values: tuple = ()


@dataclass(frozen=True)
class EncryptedRelation:
    """``R_i^S``: the DAS-encrypted partial result of one source."""

    source: str
    relation_name: str
    rows: tuple[EncryptedTuple, ...]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ServerQuery:
    """``q_S`` as data: the overlapping index-value pairs of Cond_S."""

    pairs: tuple[tuple[int, int], ...]

    def condition(self, name_1: str, name_2: str, attribute: str) -> Condition:
        """The paper's Cond_S formula, as a condition AST (for display)."""
        return disjunction(
            conjunction(
                [
                    Comparison(f"{name_1}.{attribute}", "=", index_1),
                    Comparison(f"{name_2}.{attribute}", "=", index_2),
                ]
            )
            for index_1, index_2 in self.pairs
        )


@dataclass(frozen=True)
class ServerResult:
    """``R_C``: pairs of encrypted tuples the server query selected."""

    pairs: tuple[tuple[EncryptedTuple, EncryptedTuple], ...]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class _SourceState:
    """Transient per-source state during the delivery phase."""

    index_table: IndexTable
    encrypted_relation: EncryptedRelation
    encrypted_index_table: hybrid.HybridCiphertext | None = None
    plain_rows: dict[int, Row] = field(default_factory=dict)


def _partition_domain(
    config: DASConfig, active_domain: tuple, attribute: str
) -> list[partitioning.Partition]:
    if config.strategy == "singleton":
        return partitioning.singleton(active_domain)
    if config.strategy == "equi_width":
        return partitioning.equi_width(active_domain, config.buckets)
    return partitioning.equi_depth(active_domain, config.buckets)


def _mixed_split(schema: Schema, config: DASConfig) -> tuple[list[int], list[int]]:
    """(sensitive positions, plaintext positions) for the mixed model."""
    # Names not in this schema belong to the other relation; validation
    # of completely unknown names happens once in run_das_delivery.
    plaintext = set(config.mixed_plaintext_attributes) & set(schema.names())
    sensitive_positions = [
        i for i, a in enumerate(schema.attributes) if a.name not in plaintext
    ]
    plain_positions = [
        i for i, a in enumerate(schema.attributes) if a.name in plaintext
    ]
    if not sensitive_positions:
        raise ProtocolError("the mixed DAS model needs a sensitive attribute")
    return sensitive_positions, plain_positions


def _encrypt_source(
    source_name: str,
    relation: Relation,
    attribute: str,
    config: DASConfig,
    client_keys,
    engine: CryptoEngine | None = None,
    cache: IndexCache | None = None,
    hardening=None,
) -> _SourceState:
    """Steps 1-2 at one datasource.

    With an index cache attached, the partition index table and the
    per-row hybrid etuples persist across queries (keyed by row content
    and recipient key set, under the source's key epoch), so a repeated
    join on an unchanged relation skips the dominant per-row hybrid
    encryption entirely.  Note the amortization trade-off inherited from
    caching: the index table's salted identifiers repeat across the
    series, so the mediator can correlate buckets *between* queries of
    one epoch (see docs/storage.md).
    """
    engine = engine or get_engine()
    if attribute in config.mixed_plaintext_attributes:
        raise ProtocolError(
            "the join attribute must remain sensitive in the mixed DAS model"
        )
    table_tag = (
        f"{config.strategy}:{config.buckets}:{attribute}".encode()
    )

    def fresh_index_table(missing: list[int]) -> list[IndexTable]:
        active_domain = relation.active_domain(attribute)
        partitions = _partition_domain(config, active_domain, attribute)
        return [
            partitioning.build_index_table(
                f"{relation.name}.{attribute}",
                partitions,
                salt=secrets.token_bytes(16),
            )
        ]

    index_table = cache_through(
        cache, relation.name, KIND_DAS_INDEX, 1,
        slots=lambda: [
            b"itable:" + relation_fingerprint(relation) + table_tag
        ],
        compute=fresh_index_table,
        encode=encode_value,
        decode=_decode_index_table,
    )[0]

    sensitive_positions, plain_positions = _mixed_split(relation.schema, config)
    position_tag = ",".join(map(str, sensitive_positions)).encode()
    rows = list(relation)
    encoded_rows = [
        encode_row(tuple(row[i] for i in sensitive_positions)) for row in rows
    ]
    # Hardened runs wrap every row encoding to one uniform length before
    # it can influence cache slots or ciphertext bodies; the client
    # unwraps (and discards dummies) in _row_decryptor.
    row_target = 0
    if hardening is not None:
        encoded_rows, row_target = hardening.wrap_uniform(encoded_rows)

    def etuple_slots() -> list[bytes]:
        prefix = (
            b"etuple:" + hybrid.recipient_digest(client_keys) + position_tag
            + b":"
        )
        return [prefix + encoded for encoded in encoded_rows]

    etuples = cache_through(
        cache, relation.name, KIND_DAS_TUPLE, len(rows),
        slots=etuple_slots,
        compute=lambda missing: engine.batch_hybrid_encrypt(
            client_keys, [encoded_rows[position] for position in missing]
        ),
        encode=encode_value,
        decode=_decode_hybrid,
    )

    encrypted_rows = [
        EncryptedTuple(
            etuple,
            index_table.index_of(relation.value(row, attribute)),
            plain_values=tuple(row[i] for i in plain_positions),
        )
        for row, etuple in zip(rows, etuples)
    ]
    if hardening is not None:
        # Bucket padding: top every bucket up to the adjacency-invariant
        # bound max_multiplicity * (values per partition), so the
        # per-bucket frequency shape the mediator observes is a constant
        # of |domactive| and the config.  Dummies are freshly encrypted
        # (never cached — identical ciphertexts would fingerprint them)
        # and the padded relation is shuffled so position carries nothing.
        multiplicities: dict = {}
        for row in rows:
            value = relation.value(row, attribute)
            multiplicities[value] = multiplicities.get(value, 0) + 1
        bound = hardening.policy.bucket_bound(
            max(multiplicities.values(), default=0),
            len(multiplicities),
            config.buckets,
            config.strategy,
        )
        occupancy: dict[int, int] = {}
        for encrypted in encrypted_rows:
            occupancy[encrypted.index_value] = (
                occupancy.get(encrypted.index_value, 0) + 1
            )
        shortfalls = [
            (index, bound - occupancy.get(index, 0))
            for _, index in index_table.entries
        ]
        total_dummies = sum(shortfall for _, shortfall in shortfalls)
        if any(shortfall < 0 for _, shortfall in shortfalls):
            raise ProtocolError(
                "hardened bucket bound under-estimates a bucket occupancy"
            )
        if total_dummies:
            dummy_ciphertexts = engine.batch_hybrid_encrypt(
                client_keys,
                [hardening.dummy(row_target) for _ in range(total_dummies)],
            )
            cursor = 0
            for index, shortfall in shortfalls:
                for _ in range(shortfall):
                    encrypted_rows.append(
                        EncryptedTuple(dummy_ciphertexts[cursor], index)
                    )
                    cursor += 1
        random.SystemRandom().shuffle(encrypted_rows)
    encrypted_relation = EncryptedRelation(
        source=source_name,
        relation_name=relation.name,
        rows=tuple(encrypted_rows),
    )
    table_bytes = index_table.to_bytes()
    if hardening is not None:
        table_bytes = hardening.wrap_table(table_bytes)
    encrypted_index_table = hybrid.encrypt(client_keys, table_bytes)
    return _SourceState(
        index_table=index_table,
        encrypted_relation=encrypted_relation,
        encrypted_index_table=encrypted_index_table,
    )


def _evaluate_server_query(
    query: ServerQuery,
    relation_1: EncryptedRelation,
    relation_2: EncryptedRelation,
    backend: StorageBackend | None = None,
) -> ServerResult:
    """Step 6 at the mediator: sigma_CondS(R1^S x R2^S), hash-grouped.

    Operationally equivalent to evaluating the Cond_S disjunction over
    the cross product, but grouped by index value so cost is output- not
    product-sized.  With a storage backend attached the bucket-membership
    join is pushed down into the engine (a SQL equi-join on SQLite); a
    failing backend degrades to the in-process path.
    """
    if backend is not None:
        try:
            positions = backend.bucket_join(
                [encode_value(row.index_value) for row in relation_1.rows],
                [encode_value(row.index_value) for row in relation_2.rows],
                [
                    (encode_value(index_1), encode_value(index_2))
                    for index_1, index_2 in query.pairs
                ],
            )
            return ServerResult(
                pairs=tuple(
                    (relation_1.rows[i], relation_2.rows[j])
                    for i, j in positions
                )
            )
        except StorageError:
            pass
    by_index_2: dict[int, list[EncryptedTuple]] = {}
    for row in relation_2.rows:
        by_index_2.setdefault(row.index_value, []).append(row)
    wanted: dict[int, list[int]] = {}
    for index_1, index_2 in query.pairs:
        wanted.setdefault(index_1, []).append(index_2)
    pairs = []
    for row_1 in relation_1.rows:
        for index_2 in wanted.get(row_1.index_value, ()):
            for row_2 in by_index_2.get(index_2, ()):
                pairs.append((row_1, row_2))
    return ServerResult(pairs=tuple(pairs))


def _table_from_plaintext(plaintext: bytes, hardening=None) -> IndexTable:
    """Decode a decrypted index table, unwrapping hardened padding."""
    if hardening is not None:
        plaintext = hardening.unwrap(plaintext)
        if plaintext is None:
            raise ProtocolError("hardened index table decrypted to a dummy")
    return IndexTable.from_bytes(plaintext)


def _server_pairs(
    table_1: IndexTable, table_2: IndexTable, hardening=None
) -> tuple[tuple[int, int], ...]:
    """The q_S index pairs: overlap-driven, or all pairs when hardened.

    The overlap count is data-dependent (it tracks which buckets share
    values), so hardened translators request the full B_1 x B_2 grid —
    the server result becomes the entire padded cross product, whose
    size (B_1 * bound_1) * (B_2 * bound_2) is an adjacency invariant.
    """
    if hardening is None:
        return tuple(table_1.overlapping_pairs(table_2))
    return tuple(
        (index_1, index_2)
        for _, index_1 in table_1.entries
        for _, index_2 in table_2.entries
    )


def _row_decryptor(
    client,
    schema: Schema,
    config: DASConfig,
    encrypted_tuples: list[EncryptedTuple] | None = None,
    engine: CryptoEngine | None = None,
    hardening=None,
):
    """Build a per-schema decryptor that reassembles mixed-model rows.

    When ``encrypted_tuples`` is given, their distinct etuples are
    decrypted up front as one engine batch and the per-tuple decryptor
    becomes a cache lookup (a selected tuple typically appears in many
    server-result pairs, so the cache also deduplicates work).
    """
    sensitive_positions, plain_positions = _mixed_split(schema, config)
    sensitive_schema = Schema(
        schema.relation_name,
        [schema.attributes[i] for i in sensitive_positions],
    )
    cache: dict[int, Row] = {}

    def merge(encrypted: EncryptedTuple, plaintext: bytes) -> Row | None:
        if hardening is not None:
            plaintext = hardening.unwrap(plaintext)
            if plaintext is None:
                return None  # dummy etuple: discard, never a result row
        sensitive_part = decode_row(plaintext, sensitive_schema)
        merged: list = [None] * len(schema)
        for value, position in zip(sensitive_part, sensitive_positions):
            merged[position] = value
        for value, position in zip(encrypted.plain_values, plain_positions):
            merged[position] = value
        return tuple(merged)

    if encrypted_tuples:
        distinct: dict[int, EncryptedTuple] = {}
        for encrypted in encrypted_tuples:
            distinct.setdefault(id(encrypted), encrypted)
        plaintexts = client.decrypt_hybrid_many(
            [encrypted.etuple for encrypted in distinct.values()], engine=engine
        )
        for (cache_key, encrypted), plaintext in zip(
            distinct.items(), plaintexts
        ):
            cache[cache_key] = merge(encrypted, plaintext)

    def decrypt_row(encrypted: EncryptedTuple) -> Row:
        cache_key = id(encrypted)
        if cache_key not in cache:
            cache[cache_key] = merge(
                encrypted, client.decrypt_hybrid(encrypted.etuple)
            )
        return cache[cache_key]

    return decrypt_row


def _client_postprocess(
    client,
    server_result: ServerResult,
    schema_1: Schema,
    schema_2: Schema,
    join_attributes: tuple[str, ...],
    config: DASConfig,
    engine: CryptoEngine | None = None,
    hardening=None,
) -> tuple[Relation, int, int]:
    """Step 7 at the client: decrypt R_C, apply q_C, build the result.

    Returns the global result, the number of false positives the client
    had to discard (the DAS post-processing overhead, E7), and the number
    of pairs dropped because at least one side was a hardened dummy.
    """
    attribute = join_attributes[0]
    condition = AttributeComparison(
        f"{schema_1.relation_name}.{attribute}",
        "=",
        f"{schema_2.relation_name}.{attribute}",
    )
    left_names = set(schema_1.names())
    extra_positions = [
        schema_2.position(n) for n in schema_2.names() if n not in left_names
    ]
    result_schema = schema_1.join_schema(
        schema_2, f"{schema_1.relation_name}_join_{schema_2.relation_name}"
    )
    decrypt_1 = _row_decryptor(
        client,
        schema_1,
        config,
        [pair[0] for pair in server_result.pairs],
        engine,
        hardening=hardening,
    )
    decrypt_2 = _row_decryptor(
        client,
        schema_2,
        config,
        [pair[1] for pair in server_result.pairs],
        engine,
        hardening=hardening,
    )

    rows: list[Row] = []
    false_positives = 0
    dummy_pairs = 0
    position_1 = schema_1.position(attribute)
    position_2 = schema_2.position(attribute)
    for encrypted_1, encrypted_2 in server_result.pairs:
        row_1 = decrypt_1(encrypted_1)
        row_2 = decrypt_2(encrypted_2)
        if row_1 is None or row_2 is None:
            dummy_pairs += 1
            continue
        # q_C = sigma_{R1.A = R2.A}: the real equality on plaintexts.
        if row_1[position_1] == row_2[position_2]:
            rows.append(row_1 + tuple(row_2[i] for i in extra_positions))
        else:
            false_positives += 1
    del condition  # kept above for documentation symmetry with Cond_S
    return Relation(result_schema, rows), false_positives, dummy_pairs


def run_das_delivery(
    federation: Federation,
    outcome: RequestPhaseOutcome,
    config: DASConfig | None = None,
    engine: CryptoEngine | None = None,
    hardening=None,
) -> MediationResult:
    """Execute the DAS delivery phase (Listing 2) over the message bus."""
    config = config or DASConfig()
    engine = engine or get_engine()
    if hardening is not None:
        if config.strategy == "equi_width":
            raise ProtocolError(
                "hardened mode cannot bound equi_width buckets (bucket "
                "occupancy is value-dependent); use equi_depth or singleton"
            )
        if config.mixed_plaintext_attributes:
            raise ProtocolError(
                "hardened mode is incompatible with the mixed DAS model: "
                "plaintext attribute values leak by construction"
            )
        if config.setting == MEDIATOR_SETTING:
            raise ProtocolError(
                "hardened mode is incompatible with the mediator setting: "
                "the index tables reach the mediator in plaintext"
            )
    if len(outcome.join_attributes) != 1:
        raise ProtocolError(
            "the DAS delivery phase supports exactly one join attribute; "
            "use the commutative or private-matching protocol for "
            "composite join keys"
        )
    client = federation.require_client()
    mediator_name = federation.mediator.name
    network = federation.network
    attribute = outcome.join_attributes[0]
    source_1, source_2 = outcome.source_names
    schema_1 = outcome.schema_of(source_1)
    schema_2 = outcome.schema_of(source_2)
    unknown_mixed = set(config.mixed_plaintext_attributes) - (
        set(schema_1.names()) | set(schema_2.names())
    )
    if unknown_mixed:
        raise ProtocolError(
            f"unknown mixed-model attributes: {sorted(unknown_mixed)}"
        )

    result = MediationResult(
        protocol=f"das[{config.setting}]",
        query=outcome.query,
        global_result=Relation(schema_1, []),  # placeholder, set below
        network=network,
        primitive_counter=None,  # set below
    )

    with count_primitives() as counter:
        result.primitive_counter = counter
        client_keys = public_keys_of(
            outcome.forwarded_credentials[source_1]
            + outcome.forwarded_credentials[source_2]
        )

        # The source setting makes source_1 the translator; it needs a
        # keypair so the opposite table can be encrypted for it.
        translator_key = None
        if config.setting == SOURCE_SETTING:
            translator_key = federation.source(source_1).ensure_keypair()

        # Steps 1-3: sources partition, encrypt, and send to the mediator.
        states: dict[str, _SourceState] = {}
        for source_name in (source_1, source_2):
            with timed(result, source_name, "partition_and_encrypt"):
                state = _encrypt_source(
                    source_name,
                    outcome.partial_results[source_name],
                    attribute,
                    config,
                    client_keys,
                    engine,
                    cache=federation.source(source_name).index_cache(),
                    hardening=hardening,
                )
            states[source_name] = state
            if config.setting == CLIENT_SETTING:
                table_body = state.encrypted_index_table
            elif config.setting == SOURCE_SETTING:
                if source_name == source_2:
                    # Encrypted for the *translating source*, not the
                    # client: only S1 can open it.
                    table_2_bytes = state.index_table.to_bytes()
                    if hardening is not None:
                        table_2_bytes = hardening.wrap_table(table_2_bytes)
                    table_body = hybrid.encrypt([translator_key], table_2_bytes)
                else:
                    table_body = None  # S1 keeps its own table locally
            else:
                # Mediator setting (insecure baseline): plaintext table.
                table_body = state.index_table
            network.send(
                source_name,
                mediator_name,
                "das_encrypted_partial_result",
                {
                    "relation": state.encrypted_relation,
                    "index_table": table_body,
                },
            )

        if config.setting == SOURCE_SETTING:
            # The mediator forwards S2's encrypted table to the
            # translating source, which builds the server query.
            encrypted_table_2 = [
                m.body["index_table"]
                for m in network.messages_of_kind("das_encrypted_partial_result")
                if m.sender == source_2
            ][0]
            network.send(
                mediator_name,
                source_1,
                "das_index_table_for_translator",
                encrypted_table_2,
            )
            with timed(result, source_1, "translate_query"):
                table_2 = _table_from_plaintext(
                    hybrid.decrypt(
                        federation.source(source_1).private_key(),
                        encrypted_table_2,
                    ),
                    hardening,
                )
                server_query = ServerQuery(
                    pairs=_server_pairs(
                        states[source_1].index_table, table_2, hardening
                    )
                )
            network.send(source_1, mediator_name, "das_server_query", server_query)
        elif config.setting == CLIENT_SETTING:
            # Step 4: mediator forwards both encrypted index tables.
            network.send(
                mediator_name,
                client.name,
                "das_encrypted_index_tables",
                {
                    source_1: states[source_1].encrypted_index_table,
                    source_2: states[source_2].encrypted_index_table,
                },
            )
            # Step 5: client decrypts the tables and translates q.
            with timed(result, client.name, "translate_query"):
                table_1 = _table_from_plaintext(
                    client.decrypt_hybrid(states[source_1].encrypted_index_table),
                    hardening,
                )
                table_2 = _table_from_plaintext(
                    client.decrypt_hybrid(states[source_2].encrypted_index_table),
                    hardening,
                )
                server_query = ServerQuery(
                    pairs=_server_pairs(table_1, table_2, hardening)
                )
            network.send(client.name, mediator_name, "das_server_query", server_query)
        else:
            # Mediator setting: the mediator translates q itself.
            with timed(result, mediator_name, "translate_query"):
                server_query = ServerQuery(
                    pairs=tuple(
                        states[source_1].index_table.overlapping_pairs(
                            states[source_2].index_table
                        )
                    )
                )

        # Step 6: mediator evaluates q_S over the encrypted relations.
        with timed(result, mediator_name, "evaluate_server_query"):
            server_result = _evaluate_server_query(
                server_query,
                states[source_1].encrypted_relation,
                states[source_2].encrypted_relation,
                backend=federation.mediator.storage,
            )
        if hardening is not None:
            # Fixed-size frames: the padded cross product streams to the
            # client in chunks whose count is a pure function of the
            # (invariant) bound — no dummy top-up needed, the relation
            # padding already fixed |R_C|.
            hardening.cover.deliver_chunks(
                network,
                mediator_name,
                client.name,
                "das_server_result",
                list(server_result.pairs),
                bound=len(server_result.pairs),
                wrap_body=lambda chunk: ServerResult(pairs=tuple(chunk)),
            )
        else:
            network.send(
                mediator_name, client.name, "das_server_result", server_result
            )

        # Step 7: client decrypts and applies q_C.
        with timed(result, client.name, "decrypt_and_postprocess"):
            global_result, false_positives, dummy_pairs = _client_postprocess(
                client,
                server_result,
                schema_1,
                schema_2,
                outcome.join_attributes,
                config,
                engine,
                hardening=hardening,
            )

    result.global_result = global_result
    result.artifacts.update(
        {
            "index_tables": {
                source_1: states[source_1].index_table,
                source_2: states[source_2].index_table,
            },
            "server_query_pairs": len(server_query.pairs),
            "server_result_size": len(server_result),
            "false_positives": false_positives,
            "cond_s": str(
                server_query.condition(
                    f"{schema_1.relation_name}S", f"{schema_2.relation_name}S",
                    attribute,
                )
            ),
            "config": config,
        }
    )
    if hardening is not None:
        result.artifacts["dummy_pairs_discarded"] = dummy_pairs
    if config.setting == SOURCE_SETTING:
        # The distinguishing leakage of this setting: the translating
        # source learned the opposite source's index table.
        result.artifacts["translator_source"] = source_1
    return result
