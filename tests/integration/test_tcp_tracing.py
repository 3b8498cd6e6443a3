"""Trace-context propagation across the TCP boundary and the worker pool.

The distributed-tracing acceptance story: one traced run over TCP must
yield a *single* trace — every party's spans carry the same trace ID,
each endpoint ``recv:`` span hangs off the matching sender ``send:``
span, and crypto-engine pool workers' chunk spans hang off the driver's
batch span.
"""

import pytest

from repro.core.runner import run_join_query
from repro.crypto.engine import CryptoEngine, use_engine
from repro.mediation.access_control import allow_all
from repro.mediation.ca import CertificationAuthority
from repro.mediation.client import default_homomorphic_scheme, setup_client
from repro.core.federation import Federation
from repro.relational.relation import Relation
from repro.relational.schema import schema
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    use_metrics,
    use_tracer,
)
from repro.telemetry.metrics import PRIMITIVE_OPS_METRIC
from repro.transport import codec
from repro.transport.tcp import TcpTransport

S1_SCHEMA = schema("R1", k="int", a="string")
S2_SCHEMA = schema("R2", k="int", b="string")
QUERY = "select * from R1 natural join R2"


def build_federation(network=None) -> Federation:
    ca = CertificationAuthority(key_bits=1024)
    federation = (
        Federation(ca=ca, network=network) if network else Federation(ca=ca)
    )
    r1 = Relation(S1_SCHEMA, [(1, "x"), (2, "y"), (3, "z")])
    r2 = Relation(S2_SCHEMA, [(2, "p"), (3, "q"), (4, "r")])
    federation.add_source("S1", [(r1, allow_all())])
    federation.add_source("S2", [(r2, allow_all())])
    federation.attach_client(
        setup_client(
            ca,
            "client",
            {("role", "analyst")},
            rsa_bits=1024,
            homomorphic_scheme=default_homomorphic_scheme(1024),
        )
    )
    return federation


class TestEnvelopeTraceContext:
    def test_untraced_envelope_has_eight_slots(self):
        encoded = codec.encode_envelope(
            1, "a", "b", "kind", {"x": 1}, None, "r:1", "s"
        )
        assert codec.decode_envelope(encoded) == (
            1, "a", "b", "kind", {"x": 1}, None, "r:1", "s",
        )
        # The same eight slots as a traced envelope, the trace left None:
        # a frame's shape does not depend on whether tracing is on.
        assert encoded == codec.encode_value(
            (1, "a", "b", "kind", {"x": 1}, None, "r:1", "s")
        )

    def test_trace_context_rides_the_envelope(self):
        trace = ("t" * 32, "s" * 16)
        encoded = codec.encode_envelope(
            7, "S1", "mediator", "tags", [1, 2], trace, "r:7", "s"
        )
        decoded = codec.decode_envelope(encoded)
        assert decoded[:5] == (7, "S1", "mediator", "tags", [1, 2])
        assert decoded[5] == trace

    def test_malformed_trace_context_rejected(self):
        from repro.errors import EncodingError

        bad = codec.encode_value(
            (1, "a", "b", "k", None, ("only-one",), "r:1", "s")
        )
        with pytest.raises(EncodingError, match="trace"):
            codec.decode_envelope(bad)


class TestDistributedTrace:
    def test_tcp_run_produces_one_stitched_trace(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        transport = TcpTransport()
        try:
            with use_tracer(tracer), use_metrics(registry):
                federation = build_federation(network=transport)
                result = run_join_query(
                    federation, QUERY, protocol="commutative"
                )
                transport.harvest_telemetry()
        finally:
            transport.close()
        assert len(result.global_result) == 2

        # Everything — client, mediator, both sources, send and recv
        # spans — belongs to one trace.
        assert tracer.trace_ids() == {tracer.trace_id}
        assert {"client", "mediator", "S1", "S2"} <= tracer.parties()

        # Every transcript message has a send span at the sender and an
        # adopted recv span at the receiving endpoint, and the recv
        # span's parent edge points at exactly that send span.
        sends = {s.span_id: s for s in tracer.spans if s.name.startswith("send:")}
        recvs = [s for s in tracer.spans if s.name.startswith("recv:")]
        assert len(sends) == len(result.network.transcript)
        assert len(recvs) == len(result.network.transcript)
        for recv in recvs:
            parent = sends[recv.parent_id]
            assert parent.name == "send:" + recv.name.removeprefix("recv:")
            assert parent.party == recv.attributes["sender"]
            assert recv.party == parent.attributes["receiver"]
            assert recv.attributes["sequence"] == parent.attributes["sequence"]

        # Transcript and trace agree message-by-message.
        for message in result.network.transcript:
            matching = [
                s for s in sends.values()
                if s.attributes["sequence"] == message.sequence
            ]
            assert len(matching) == 1
            assert matching[0].party == message.sender
            assert matching[0].attributes["receiver"] == message.receiver

        # Endpoint metrics merged into the installed registry.
        assert registry.total("repro_endpoint_messages_total") == len(
            result.network.transcript
        )

    def test_primitive_totals_match_counter_at_equal_scope(self):
        registry = MetricsRegistry()
        from repro.crypto.instrumentation import count_primitives

        with use_metrics(registry), count_primitives() as counter:
            federation = build_federation()
            run_join_query(federation, QUERY, protocol="commutative")
        assert registry.primitive_counts() == dict(counter.counts)
        assert registry.total(PRIMITIVE_OPS_METRIC) == sum(
            counter.counts.values()
        )

    def test_results_identical_with_and_without_telemetry(self):
        plain = run_join_query(build_federation(), QUERY, protocol="commutative")
        tracer = Tracer()
        with use_tracer(tracer), use_metrics(MetricsRegistry()):
            traced = run_join_query(
                build_federation(), QUERY, protocol="commutative"
            )
        assert plain.global_result == traced.global_result
        assert dict(plain.primitive_counter.counts) == dict(
            traced.primitive_counter.counts
        )


class TestPoolWorkerSpans:
    def test_worker_chunk_spans_land_under_the_batch_span(self):
        tracer = Tracer()
        engine = CryptoEngine(workers=2, threshold=1)
        try:
            with use_tracer(tracer), use_engine(engine):
                with tracer.span("step", "S1"):
                    engine.batch_pow([2, 3, 4, 5], 65537, (1 << 61) - 1)
        finally:
            engine.close()
        (step,) = tracer.find("step")
        batches = [s for s in tracer.spans if s.name == "crypto:pow"]
        assert len(batches) == 1
        batch = batches[0]
        assert batch.parent_id == step.span_id
        assert batch.party == "S1"
        assert batch.attributes["mode"] == "pooled"
        chunks = tracer.find("crypto:chunk")
        assert chunks, "pool workers shipped no spans back"
        assert all(c.parent_id == batch.span_id for c in chunks)
        assert all(c.trace_id == tracer.trace_id for c in chunks)
        assert all(c.party == "S1" for c in chunks)
        assert sum(c.attributes["items"] for c in chunks) == 4

    def test_serial_batch_records_only_the_batch_span(self):
        tracer = Tracer()
        engine = CryptoEngine(workers=0)
        with use_tracer(tracer), use_engine(engine):
            engine.batch_pow([2, 3], 3, 97)
        assert tracer.find("crypto:chunk") == []
        (batch,) = tracer.find("crypto:pow")
        assert batch.attributes["mode"] == "serial"

    def test_pool_counts_unchanged_by_tracing(self):
        from repro.crypto.commutative import generate_key
        from repro.crypto.groups import TEST_GROUP_BITS, commutative_group
        from repro.crypto.instrumentation import count_primitives

        group = commutative_group(TEST_GROUP_BITS)
        key = generate_key(group)
        values = [group.random_element() for _ in range(6)]

        def run(engine, tracer=None):
            with count_primitives() as counter:
                if tracer is None:
                    out = engine.batch_commutative_encrypt(key, values)
                else:
                    with use_tracer(tracer):
                        out = engine.batch_commutative_encrypt(key, values)
            return out, dict(counter.counts)

        serial = CryptoEngine(workers=0)
        pooled = CryptoEngine(workers=2, threshold=1)
        try:
            base_out, base_counts = run(serial)
            traced_out, traced_counts = run(pooled, Tracer())
        finally:
            pooled.close()
        assert traced_out == base_out
        assert traced_counts == base_counts
