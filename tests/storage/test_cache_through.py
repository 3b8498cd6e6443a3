"""The one cache-through path: what a stored value must do to count.

A stored blob is a hit only once it decodes.  A blob that passes the
integrity seal but does not decode (format drift, a foreign writer)
counts as one error, reads as a miss and is recomputed — and the run's
``CacheStats`` agree with the Prometheus counters at every step.
"""

import pytest

from repro import Federation, run_join_query
from repro.core.runner import reference_join
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_relation
from repro.storage import (
    CACHE_ERRORS_METRIC,
    CACHE_HITS_METRIC,
    CACHE_MISSES_METRIC,
    KIND_COMM_DOUBLE,
    KIND_COMM_KEY,
    KIND_COMM_TAG,
    KIND_COMM_TUPLES,
    KIND_DAS_INDEX,
    KIND_DAS_TUPLE,
    KIND_PM_COEFFS,
)
from repro.storage.base import _seal
from repro.telemetry.metrics import MetricsRegistry, use_metrics

QUERY = "select * from R1 natural join R2"

#: The protocol that writes each cached artifact kind.
PROTOCOL_OF = {
    KIND_COMM_KEY: "commutative",
    KIND_COMM_TAG: "commutative",
    KIND_COMM_DOUBLE: "commutative",
    KIND_COMM_TUPLES: "commutative",
    KIND_DAS_INDEX: "das",
    KIND_DAS_TUPLE: "das",
    KIND_PM_COEFFS: "private-matching",
}


def build(ca, client, workload, backend):
    federation = Federation(ca=ca, storage=backend)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def run_and_check(federation, protocol):
    result = run_join_query(federation, QUERY, protocol=protocol)
    reference = reference_join(federation, QUERY)
    assert encode_relation(result.global_result) == encode_relation(reference)
    return result.artifacts["storage_cache"]


def assert_stats_match_metrics(stats, registry):
    assert stats["hits"] == registry.total(CACHE_HITS_METRIC)
    assert stats["misses"] == registry.total(CACHE_MISSES_METRIC)
    assert stats["errors"] == registry.total(CACHE_ERRORS_METRIC)


@pytest.mark.parametrize("kind", sorted(PROTOCOL_OF))
def test_undecodable_blobs_count_as_errors_not_hits(
    ca, client, workload, backend, monkeypatch, kind
):
    protocol = PROTOCOL_OF[kind]
    slots = set()
    put = backend.cache_put

    def recording_put(namespace, relation, entry_kind, key, value):
        if entry_kind == kind:
            slots.add((namespace, relation, key))
        put(namespace, relation, entry_kind, key, value)

    monkeypatch.setattr(backend, "cache_put", recording_put)
    federation = build(ca, client, workload, backend)
    with use_metrics(MetricsRegistry()) as registry:
        cold = run_and_check(federation, protocol)
        assert slots, f"the cold run wrote no {kind} entry"
        for namespace, relation, key in slots:
            put(namespace, relation, kind, key, _seal(b"garbage"))
        warm = run_and_check(federation, protocol)
    assert cold["errors"] == 0
    assert warm["errors"] == len(slots)
    assert_stats_match_metrics(warm, registry)
