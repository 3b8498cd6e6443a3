"""Cache-invalidation semantics through the mediation layer.

Cached encrypted indexes are functions of (row set, protocol keys): a
row mutation must drop the relation's entries and the next query must
reflect the new rows; a key rotation must bump the epoch and drop
everything written under the old one.  Correctness-first: a stale cache
here would silently produce wrong join results, so these tests assert
both the cache bookkeeping and the query output.
"""

import pytest

from repro import Federation, run_join_query
from repro.core.runner import reference_join
from repro.mediation.access_control import allow_all
from repro.relational.encoding import encode_relation

QUERY = "select * from R1 natural join R2"


@pytest.fixture
def federation(ca, client, workload, backend):
    federation = Federation(ca=ca, storage=backend)
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(client)
    return federation


def run_and_check(federation, protocol="commutative"):
    result = run_join_query(federation, QUERY, protocol=protocol)
    reference = reference_join(federation, QUERY)
    assert encode_relation(result.global_result) == encode_relation(reference)
    return result


def joining_row(workload, relation):
    """A row of ``relation`` whose join key appears on the other side."""
    other = (
        workload.relation_2
        if relation is workload.relation_1
        else workload.relation_1
    )
    k = relation.schema.position("k")
    other_k = other.schema.position("k")
    shared = {row[other_k] for row in other.rows}
    return next(row for row in relation.rows if row[k] in shared)


class TestRowMutations:
    def test_insert_invalidates_and_query_sees_new_rows(
        self, federation, backend, workload
    ):
        run_and_check(federation)
        assert backend.cache_size("S1") > 0
        before = len(run_and_check(federation).global_result)

        # Insert a fresh row whose join key definitely matches R2.
        joining = list(joining_row(workload, workload.relation_1))
        joining[-1] = "fresh-payload"
        federation.source("S1").insert_rows("R1", [tuple(joining)])

        # The mutation dropped R1's cache entries and the protocol
        # result includes the new row's matches.
        result = run_and_check(federation)
        assert len(result.global_result) > before

    def test_delete_invalidates_and_query_shrinks(self, federation, workload):
        before = len(run_and_check(federation).global_result)
        doomed = joining_row(workload, workload.relation_2)
        federation.source("S2").delete_rows("R2", [doomed])
        after = len(run_and_check(federation).global_result)
        assert after < before

    def test_update_row_changes_the_result(self, federation, workload):
        run_and_check(federation)
        old = joining_row(workload, workload.relation_1)
        updated = list(old)
        updated[-1] = "rewritten"
        federation.source("S1").update_row("R1", old, tuple(updated))
        result = run_and_check(federation)
        assert any("rewritten" in row for row in result.global_result.rows)

    def test_mutation_only_invalidates_its_relation(
        self, federation, backend, workload
    ):
        run_and_check(federation)
        s2_entries = backend.cache_size("S2")
        assert s2_entries > 0
        federation.source("S1").insert_rows(
            "R1", [workload.relation_1.rows[0]]
        )
        # Set semantics: inserting an existing row is content-neutral...
        # so S1's caches survive too; a genuinely new row must only
        # touch S1.
        new_row = list(workload.relation_1.rows[0])
        new_row[-1] = "different"
        federation.source("S1").insert_rows("R1", [tuple(new_row)])
        assert backend.cache_size("S1") == 0
        assert backend.cache_size("S2") == s2_entries


class TestKeyRotation:
    def test_rotation_bumps_epoch_and_drops_entries(
        self, federation, backend
    ):
        run_and_check(federation)
        assert backend.cache_size("S1") > 0
        assert federation.source("S1").rotate_keys() == 1
        assert backend.key_epoch("S1") == 1
        assert backend.cache_size("S1") == 0

    def test_post_rotation_queries_are_correct_and_recache(
        self, federation, backend
    ):
        run_and_check(federation)
        federation.source("S1").rotate_keys()
        federation.source("S2").rotate_keys()
        result = run_and_check(federation)
        # Everything was recomputed under the new epoch...
        assert result.artifacts["storage_cache"]["errors"] == 0
        assert backend.cache_size("S1") > 0
        # ...and is served again on the next run.
        warm = run_and_check(federation)
        assert warm.artifacts["storage_cache"]["hits"] > 0

    def test_rotation_without_storage_is_a_noop(self, ca, client, workload):
        federation = Federation(ca=ca)
        federation.add_source("S1", [(workload.relation_1, allow_all())])
        assert federation.source("S1").rotate_keys() == 0
