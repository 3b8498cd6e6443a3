"""Property-based end-to-end tests over randomly generated relations.

Hypothesis drives small random relation pairs through the full protocol
stack; the master invariant (protocol result == reference natural join)
and the key leakage invariants must hold on every example.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CommutativeConfig,
    DASConfig,
    Federation,
    PMConfig,
    run_join_query,
)
from repro.mediation.access_control import allow_all
from repro.relational.algebra import natural_join
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.transport import codec

S1 = schema("R1", k="int", a="string")
S2 = schema("R2", k="int", b="string")
QUERY = "select * from R1 natural join R2"

rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.text(max_size=4)),
    max_size=8,
)

SLOW_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run_on(ca, client, rows_1, rows_2, protocol, config):
    r1 = Relation(S1, rows_1)
    r2 = Relation(S2, rows_2)
    federation = Federation(ca=ca)
    federation.add_source("S1", [(r1, allow_all())])
    federation.add_source("S2", [(r2, allow_all())])
    federation.attach_client(client)
    result = run_join_query(federation, QUERY, protocol=protocol, config=config)
    assert result.global_result == natural_join(r1, r2)
    # Wire invariant: every message the protocol produced survives a
    # codec round-trip unchanged, so a TCP run would carry it faithfully.
    for message in federation.network.transcript:
        envelope = (
            message.sequence,
            message.sender,
            message.receiver,
            message.kind,
            message.body,
            None,  # no trace context attached outside a traced run
            f"origin:{message.sequence}",
            "session",
        )
        decoded = codec.decode_envelope(codec.encode_envelope(*envelope))
        assert decoded == envelope
    return result


class TestMasterInvariant:
    @given(rows_1=rows_strategy, rows_2=rows_strategy)
    @SLOW_SETTINGS
    def test_das(self, ca, client, rows_1, rows_2):
        run_on(ca, client, rows_1, rows_2, "das", DASConfig(buckets=2))

    @given(rows_1=rows_strategy, rows_2=rows_strategy)
    @SLOW_SETTINGS
    def test_commutative(self, ca, client, rows_1, rows_2):
        result = run_on(
            ca, client, rows_1, rows_2, "commutative", CommutativeConfig()
        )
        # Leakage invariant: the mediator-observed intersection equals
        # the true active-domain intersection.
        keys_1 = {row[0] for row in rows_1}
        keys_2 = {row[0] for row in rows_2}
        assert result.artifacts["intersection_size"] == len(keys_1 & keys_2)

    @given(rows_1=rows_strategy, rows_2=rows_strategy)
    @SLOW_SETTINGS
    def test_private_matching(self, ca, client, rows_1, rows_2):
        result = run_on(
            ca, client, rows_1, rows_2, "private-matching", PMConfig()
        )
        keys_1 = {row[0] for row in rows_1}
        keys_2 = {row[0] for row in rows_2}
        assert result.artifacts["matched_keys"] == len(keys_1 & keys_2)


class TestSupersetInvariant:
    @given(rows_1=rows_strategy, rows_2=rows_strategy)
    @SLOW_SETTINGS
    def test_das_server_result_superset(self, ca, client, rows_1, rows_2):
        result = run_on(ca, client, rows_1, rows_2, "das", DASConfig(buckets=2))
        assert result.artifacts["server_result_size"] >= len(
            result.global_result
        )
