"""Delivery phase with commutative encryption — Listing 3.

The commutative protocol (after Agrawal et al. [1], adapted to the MMM):

1. S_i chooses a secret commutative key e_i; for each a in
   ``domactive(R_i.A_join)`` it computes ``f_{e_i}(h(a))`` with the
   shared ideal hash h.
2. S_i hybrid-encrypts each tuple set ``Tup_i(a)`` for the client.
3. S_i sends the (arbitrarily ordered) message set
   ``M_i = {<f_{e_i}(h(a)), encrypt(Tup_i(a))>}`` to the mediator.
4. The mediator exchanges the message sets between the sources.
5./6. Each source applies its own key on top of the other's:
   ``f_{e_1}(f_{e_2}(h(a)))`` = ``f_{e_2}(f_{e_1}(h(a)))``, and returns
   the re-tagged messages to the mediator.
6. The mediator matches messages with identical first components —
   commutativity + bijectivity guarantee these are exactly the join
   values common to both active domains — and sends the combined
   ``<encrypt(Tup_1(a)), encrypt(Tup_2(a))>`` result messages to the
   client.
8. The client decrypts the tuple sets and builds the global result by
   crossing each matched pair of sets.

Footnote 1 of the paper suggests that, instead of echoing the (possibly
large) encrypted tuple sets to the opposite datasource, the mediator
should substitute fixed-length ID values and re-associate them on the
way back; ``CommutativeConfig(use_tuple_ids=True)`` enables exactly
that optimization (benchmark A3 measures the traffic it saves).
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass

from repro.core.assembly import combine_tuple_sets
from repro.core.federation import Federation
from repro.core.joinkeys import (
    JoinKey,
    active_key_domain,
    encode_key,
    group_by_key,
    key_of,
)
from repro.core.request import RequestPhaseOutcome
from repro.core.result import MediationResult
from repro.core.timing import timed
from repro.crypto import commutative as comm
from repro.crypto import groups, hybrid, symmetric
from repro.crypto.engine import CryptoEngine, get_engine
from repro.crypto.hashes import IdealHash
from repro.crypto.instrumentation import count_primitives
from repro.crypto.numtheory import int_to_bytes
from repro.errors import ProtocolError
from repro.mediation.credentials import public_keys_of
from repro.relational.encoding import decode_rows, encode_rows
from repro.relational.relation import Relation
from repro.storage.base import (
    KIND_COMM_DOUBLE,
    KIND_COMM_KEY,
    KIND_COMM_TAG,
    KIND_COMM_TUPLES,
    IndexCache,
    cache_through,
    typed,
)
from repro.transport.codec import decode_value, encode_value

_ID_BYTES = 8

_decode_int = typed(decode_value, int)
_decode_hybrid = typed(decode_value, hybrid.HybridCiphertext)


@dataclass(frozen=True)
class CommutativeConfig:
    """Tunable parameters of the commutative delivery phase."""

    group_bits: int = groups.TEST_GROUP_BITS
    #: Footnote-1 optimization: ship fixed-length IDs instead of echoing
    #: encrypted tuple sets through the opposite datasource.
    use_tuple_ids: bool = False
    #: Have the sources verify that the announced group modulus really is
    #: a safe prime before keying it (costly; off for benchmarks).
    verify_group: bool = False


@dataclass(frozen=True)
class TaggedMessage:
    """``<f_e(h(a)), payload>`` — one element of a message set M_i."""

    tag: int
    payload: hybrid.HybridCiphertext | bytes  # ciphertext, or ID token


def _shuffled(items: list) -> list:
    """Cryptographically shuffled copy (order must not leak join values)."""
    shuffled = list(items)
    random.SystemRandom().shuffle(shuffled)
    return shuffled


@dataclass
class _SourceState:
    key: comm.CommutativeKey
    tuple_ciphertexts: dict[JoinKey, hybrid.HybridCiphertext]


def _key_digest(key: comm.CommutativeKey) -> bytes:
    """Short binding digest of a commutative key (group + exponent).

    Cached tags and double-encryptions embed this digest in their cache
    keys, so entries computed under one key can never be served for
    another — a replaced key simply misses instead of mismatching.
    """
    return hashlib.sha256(
        int_to_bytes(key.group.p) + b"/" + int_to_bytes(key.exponent)
    ).digest()[:12]


def _cached_key(
    cache: IndexCache | None,
    relation_name: str,
    group: comm.CommutativeGroup,
) -> comm.CommutativeKey:
    """The source's commutative key — persisted across the query series.

    The RFC 3526 groups are deterministic per bit size, so a persisted
    exponent stays valid across processes; the key lives under the
    current epoch and :meth:`DataSource.rotate_keys` retires it.
    """
    return cache_through(
        cache, relation_name, KIND_COMM_KEY, 1,
        slots=lambda: [b"key:" + int_to_bytes(group.p)[:16]],
        compute=lambda missing: [comm.generate_key(group)],
        encode=lambda key: encode_value(key.exponent),
        # An out-of-range exponent fails the key's own check: a miss.
        decode=lambda blob: comm.CommutativeKey(group, _decode_int(blob)),
    )[0]


def _prepare_source(
    relation: Relation,
    join_attributes: tuple[str, ...],
    group: comm.CommutativeGroup,
    ideal_hash: IdealHash,
    client_keys,
    config: CommutativeConfig,
    engine: CryptoEngine | None = None,
    cache: IndexCache | None = None,
    hardening=None,
) -> tuple[_SourceState, list[TaggedMessage]]:
    """Listing 3 steps 1-3 at one datasource.

    With an index cache, the key, the per-value tags ``f_e(h(a))`` and
    the hybrid tuple-set ciphertexts all persist across the query series
    (amortization per arXiv 2103.05792); only values not seen before —
    or entries dropped by a mutation/rotation — are recomputed, as one
    engine batch.
    """
    engine = engine or get_engine()
    if config.verify_group and not group.verify():
        raise ProtocolError("announced commutative group failed verification")
    key = _cached_key(cache, relation.name, group)
    grouped = group_by_key(relation, join_attributes)
    join_keys = list(grouped)

    def tag_slots() -> list[bytes]:
        prefix = b"tag:" + _key_digest(key)
        return [prefix + encode_key(join_key) for join_key in join_keys]

    tags = cache_through(
        cache, relation.name, KIND_COMM_TAG, len(join_keys),
        slots=tag_slots,
        compute=lambda missing: engine.batch_commutative_encrypt(
            key,
            [
                ideal_hash(encode_key(join_keys[position]))
                for position in missing
            ],
        ),
        encode=encode_value,
        decode=_decode_int,
    )

    # Tuple-set ciphertexts: keyed by recipient set + plaintext content.
    # Hardened runs wrap every tuple-set encoding to one uniform length
    # before anything downstream (cache slots, ciphertext bodies) can see
    # the per-value size; the client unwraps after decryption.
    encoded_sets = [encode_rows(grouped[join_key]) for join_key in join_keys]
    if hardening is not None:
        encoded_sets, _ = hardening.wrap_uniform(encoded_sets)
    def set_slots() -> list[bytes]:
        prefix = b"tupct:" + hybrid.recipient_digest(client_keys)
        return [
            prefix + encode_key(join_key)
            + hashlib.sha256(encoded).digest()[:16]
            for join_key, encoded in zip(join_keys, encoded_sets)
        ]

    ciphertexts = cache_through(
        cache, relation.name, KIND_COMM_TUPLES, len(join_keys),
        slots=set_slots,
        compute=lambda missing: engine.batch_hybrid_encrypt(
            client_keys, [encoded_sets[position] for position in missing]
        ),
        encode=encode_value,
        decode=_decode_hybrid,
    )

    tuple_ciphertexts = dict(zip(join_keys, ciphertexts))
    messages = [
        TaggedMessage(tag=tag, payload=ciphertext)
        for tag, ciphertext in zip(tags, ciphertexts)
    ]
    return _SourceState(key, tuple_ciphertexts), _shuffled(messages)


def _double_encrypt(
    messages: list[TaggedMessage],
    key: comm.CommutativeKey,
    engine: CryptoEngine | None = None,
    cache: IndexCache | None = None,
    relation_name: str = "",
) -> list[TaggedMessage]:
    """Listing 3 steps 5/6 at one datasource: apply the own key on top.

    Double-encryptions cache by (own key, incoming tag): when both
    sources reuse persisted keys, the opposite tags repeat across the
    series and this step becomes pure lookups.
    """
    engine = engine or get_engine()

    def double_slots() -> list[bytes]:
        prefix = b"double:" + _key_digest(key)
        return [prefix + int_to_bytes(message.tag) for message in messages]

    doubled = cache_through(
        cache, relation_name, KIND_COMM_DOUBLE, len(messages),
        slots=double_slots,
        compute=lambda missing: engine.batch_commutative_encrypt(
            key, [messages[position].tag for position in missing]
        ),
        encode=encode_value,
        decode=_decode_int,
    )
    return _shuffled(
        [
            TaggedMessage(tag=tag, payload=message.payload)
            for tag, message in zip(doubled, messages)
        ]
    )


def run_commutative_delivery(
    federation: Federation,
    outcome: RequestPhaseOutcome,
    config: CommutativeConfig | None = None,
    engine: CryptoEngine | None = None,
    hardening=None,
) -> MediationResult:
    """Execute the commutative delivery phase (Listing 3) over the bus."""
    config = config or CommutativeConfig()
    engine = engine or get_engine()
    client = federation.require_client()
    mediator_name = federation.mediator.name
    network = federation.network
    source_1, source_2 = outcome.source_names
    relation_1 = outcome.partial_results[source_1]
    relation_2 = outcome.partial_results[source_2]

    result = MediationResult(
        protocol="commutative" + ("[ids]" if config.use_tuple_ids else ""),
        query=outcome.query,
        global_result=Relation(relation_1.schema, []),
        network=network,
        primitive_counter=None,
    )

    with count_primitives() as counter:
        result.primitive_counter = counter
        client_keys = public_keys_of(
            outcome.forwarded_credentials[source_1]
            + outcome.forwarded_credentials[source_2]
        )
        # The mediator announces the shared group and hash parameters; the
        # paper assumes "both datasources use the same ideal hash function".
        group = groups.commutative_group(config.group_bits)
        ideal_hash = IdealHash(group.p)
        for source_name in (source_1, source_2):
            network.send(
                mediator_name,
                source_name,
                "commutative_setup",
                {"modulus": group.p, "hash_tag": ideal_hash.tag},
            )

        # Steps 1-3: each source builds and sends its message set M_i.
        states: dict[str, _SourceState] = {}
        message_sets: dict[str, list[TaggedMessage]] = {}
        for source_name, relation in (
            (source_1, relation_1),
            (source_2, relation_2),
        ):
            with timed(result, source_name, "hash_encrypt_round1"):
                state, messages = _prepare_source(
                    relation,
                    outcome.join_attributes,
                    group,
                    ideal_hash,
                    client_keys,
                    config,
                    engine,
                    cache=federation.source(source_name).index_cache(),
                    hardening=hardening,
                )
            states[source_name] = state
            message_sets[source_name] = messages
            network.send(source_name, mediator_name, "commutative_m_set", messages)

        # Step 4: the mediator exchanges the message sets (optionally
        # substituting ID tokens for the payloads, footnote 1).
        id_table: dict[bytes, hybrid.HybridCiphertext] = {}

        def outbound(messages: list[TaggedMessage]) -> list[TaggedMessage]:
            if not config.use_tuple_ids:
                return messages
            substituted = []
            for message in messages:
                token = secrets.token_bytes(_ID_BYTES)
                while token in id_table:
                    token = secrets.token_bytes(_ID_BYTES)
                id_table[token] = message.payload
                substituted.append(TaggedMessage(tag=message.tag, payload=token))
            return substituted

        forwarded_to_2 = outbound(message_sets[source_1])
        forwarded_to_1 = outbound(message_sets[source_2])
        network.send(mediator_name, source_2, "commutative_exchange", forwarded_to_2)
        network.send(mediator_name, source_1, "commutative_exchange", forwarded_to_1)

        # Steps 5-6: sources double-encrypt and return.
        with timed(result, source_1, "double_encrypt"):
            response_1 = _double_encrypt(
                forwarded_to_1,
                states[source_1].key,
                engine,
                cache=federation.source(source_1).index_cache(),
                relation_name=relation_1.name,
            )
        network.send(source_1, mediator_name, "commutative_double", response_1)
        with timed(result, source_2, "double_encrypt"):
            response_2 = _double_encrypt(
                forwarded_to_2,
                states[source_2].key,
                engine,
                cache=federation.source(source_2).index_cache(),
                relation_name=relation_2.name,
            )
        network.send(source_2, mediator_name, "commutative_double", response_2)

        # Step 7: the mediator matches identical first components.
        def resolve(payload):
            if config.use_tuple_ids:
                if payload not in id_table:
                    raise ProtocolError("datasource returned an unknown ID token")
                return id_table[payload]
            return payload

        with timed(result, mediator_name, "match"):
            # response_1 tags derive from M_2, so payloads are Tup_2 sets;
            # response_2 payloads are Tup_1 sets.
            tup_2_by_tag = {m.tag: resolve(m.payload) for m in response_1}
            result_messages = []
            for message in response_2:
                if message.tag in tup_2_by_tag:
                    result_messages.append(
                        (resolve(message.payload), tup_2_by_tag[message.tag])
                    )
        if hardening is not None:
            # The intersection size is the mediator's headline leak (Table
            # 1 row "number of values in common").  Pad the result channel
            # to min(|M_1|, |M_2|) — active-domain sizes are adjacency
            # invariants — with dummy pairs whose ciphertext bodies match
            # the (uniform) per-source body lengths, shuffled so dummy
            # positions carry no signal, delivered as fixed-size frames.
            overhead = symmetric.ciphertext_overhead()

            def dummy_pair():
                body_1 = len(message_sets[source_1][0].payload.body)
                body_2 = len(message_sets[source_2][0].payload.body)
                return (
                    hybrid.encrypt(client_keys, hardening.dummy(body_1 - overhead)),
                    hybrid.encrypt(client_keys, hardening.dummy(body_2 - overhead)),
                )

            delivered = hardening.cover.deliver_chunks(
                network,
                mediator_name,
                client.name,
                "commutative_result",
                result_messages,
                bound=min(
                    len(message_sets[source_1]), len(message_sets[source_2])
                ),
                dummy_factory=dummy_pair,
                shuffle=True,
            )
        else:
            network.send(
                mediator_name, client.name, "commutative_result", result_messages
            )
            delivered = result_messages

        # Step 8: the client decrypts and constructs the global result.
        dummy_pairs = 0
        with timed(result, client.name, "decrypt_and_combine"):
            plaintexts_1 = client.decrypt_hybrid_many(
                [pair[0] for pair in delivered], engine=engine
            )
            plaintexts_2 = client.decrypt_hybrid_many(
                [pair[1] for pair in delivered], engine=engine
            )
            matched = []
            for plaintext_1, plaintext_2 in zip(plaintexts_1, plaintexts_2):
                if hardening is not None:
                    plaintext_1 = hardening.unwrap(plaintext_1)
                    plaintext_2 = hardening.unwrap(plaintext_2)
                    if plaintext_1 is None and plaintext_2 is None:
                        dummy_pairs += 1
                        continue
                    if plaintext_1 is None or plaintext_2 is None:
                        raise ProtocolError(
                            "commutative result pair mixes a real tuple set "
                            "with a dummy"
                        )
                rows_1 = decode_rows(plaintext_1, relation_1.schema)
                rows_2 = decode_rows(plaintext_2, relation_2.schema)
                probe = Relation(relation_1.schema, rows_1)
                join_key = key_of(probe, rows_1[0], outcome.join_attributes)
                matched.append((join_key, rows_1, rows_2))
            global_result = combine_tuple_sets(
                relation_1.schema,
                relation_2.schema,
                outcome.join_attributes,
                matched,
            )

    result.global_result = global_result
    result.artifacts.update(
        {
            "active_domain_sizes": {
                source_1: len(active_key_domain(relation_1, outcome.join_attributes)),
                source_2: len(active_key_domain(relation_2, outcome.join_attributes)),
            },
            "intersection_size": len(result_messages),
            "id_table_entries": len(id_table),
            "config": config,
        }
    )
    if hardening is not None:
        result.artifacts["dummy_pairs_discarded"] = dummy_pairs
    return result
