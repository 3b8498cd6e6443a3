"""Storage fault injection: queries degrade to recomputing indexes.

The ``storage`` injection site subjects backend operations to fault
plans.  The contract under test: cache-layer faults (store down, slow
I/O, corrupted blobs) never fail a query — the soft-failure
:class:`~repro.storage.base.IndexCache` converts them into counted
misses and the protocols recompute the encrypted indexes.
"""

import pytest

from repro import Federation, run_join_query
from repro.core.runner import reference_join
from repro.errors import StorageError
from repro.faults import FaultInjector, FaultPlan, FaultRule, FaultyStorage
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_relation
from repro.storage import CACHE_ERRORS_METRIC, MemoryBackend
from repro.telemetry.metrics import MetricsRegistry, use_metrics

QUERY = "select * from R1 natural join R2"


def build(ca, client, workload, storage):
    federation = Federation(ca=ca, storage=storage)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def faulty(*rules, seed=2007):
    return FaultyStorage(
        MemoryBackend(), FaultInjector(FaultPlan(seed=seed, rules=tuple(rules)))
    )


def assert_correct(federation, protocol="commutative"):
    result = run_join_query(federation, QUERY, protocol=protocol)
    reference = reference_join(federation, QUERY)
    assert encode_relation(result.global_result) == encode_relation(reference)
    return result


class TestPlanValidation:
    def test_storage_site_actions(self):
        from repro.faults.plan import SITE_ACTIONS

        assert SITE_ACTIONS["storage"] == frozenset(
            {"delay", "drop", "corrupt"}
        )


@pytest.mark.parametrize("protocol", ["das", "commutative", "private-matching"])
class TestGracefulDegradation:
    def test_dropped_cache_reads_degrade_to_recompute(
        self, ca, client, workload, protocol
    ):
        storage = faulty(
            FaultRule(
                action="drop", kind="storage:cache_get", max_triggers=0,
            ),
            FaultRule(
                action="drop", kind="storage:cache_put", max_triggers=0,
            ),
        )
        federation = build(ca, client, workload, storage)
        result = assert_correct(federation, protocol)
        stats = result.artifacts["storage_cache"]
        assert stats["errors"] > 0
        assert stats["hits"] == 0

    def test_corrupted_cache_blobs_are_rejected_not_trusted(
        self, ca, client, workload, protocol
    ):
        storage = faulty(
            FaultRule(
                action="corrupt", kind="storage:cache_get", max_triggers=0,
            )
        )
        federation = build(ca, client, workload, storage)
        # Warm the cache, then read it back through the corruptor:
        # every deserializer must reject the bit-flipped blobs and the
        # protocols recompute instead of using garbage.
        assert_correct(federation, protocol)
        warm = assert_correct(federation, protocol)
        assert warm.artifacts["storage_cache"]["hits"] == 0
        assert warm.artifacts["storage_cache"]["errors"] > 0


class TestSelectPushdown:
    def test_failed_select_degrades_and_is_counted_like_any_error(
        self, ca, client, workload
    ):
        storage = faulty(FaultRule(action="drop", kind="storage:select"))
        federation = build(ca, client, workload, storage)
        with use_metrics(MetricsRegistry()) as registry:
            result = assert_correct(federation)
        errors = result.artifacts["storage_cache"]["errors"]
        assert errors > 0
        assert errors == registry.total(CACHE_ERRORS_METRIC)


class TestDelay:
    def test_slow_storage_is_only_slow(self, ca, client, workload):
        storage = faulty(
            FaultRule(
                action="delay", delay_seconds=0.01,
                kind="storage:cache_get", occurrence=1,
            )
        )
        federation = build(ca, client, workload, storage)
        result = assert_correct(federation)
        assert result.artifacts["storage_cache"]["errors"] == 0

    def test_fault_events_are_recorded(self, ca, client, workload):
        injector = FaultInjector(
            FaultPlan(
                seed=1,
                rules=(
                    FaultRule(
                        action="drop", kind="storage:cache_put",
                        max_triggers=0,
                    ),
                ),
            )
        )
        storage = FaultyStorage(MemoryBackend(), injector)
        federation = build(ca, client, workload, storage)
        assert_correct(federation)
        assert injector.events
        assert all(event.site == "storage" for event in injector.events)


class TestHardFailures:
    def test_row_loads_are_not_soft(self):
        """Row-plane operations stay hard errors — only the cache is
        allowed to degrade."""
        storage = faulty(FaultRule(action="drop", kind="storage:select"))
        from repro.relational.relation import Relation
        from repro.relational.schema import Attribute, AttributeType, Schema

        schema = Schema("R", (Attribute("k", AttributeType.INT),))
        storage.store_relation("S1", Relation(schema, [(1,)]))
        with pytest.raises(StorageError):
            storage.select("S1", "R", None)

    def test_faulty_wrapper_describes_itself(self):
        storage = faulty()
        assert storage.describe().startswith("faulty(")
