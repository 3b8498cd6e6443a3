"""StorageBackend contract tests, run against both implementations.

The memory backend is the semantic reference; every behavioural test
here is parameterized over both so the SQLite implementation can never
drift from it.
"""

import pytest

from repro.errors import StorageError
from repro.relational.algebra import select
from repro.relational.conditions import Comparison
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.storage import (
    MemoryBackend,
    SQLiteBackend,
    storage_from_spec,
)

SCHEMA = Schema(
    "R",
    (
        Attribute("k", AttributeType.INT),
        Attribute("name", AttributeType.STRING),
        Attribute("active", AttributeType.BOOL),
    ),
)

ROWS = [
    (1, "ada", True),
    (2, "bob", False),
    (3, "eve", True),
]


def make_relation(rows=None, name="R"):
    schema = SCHEMA if name == "R" else Schema(name, SCHEMA.attributes)
    return Relation(schema, rows if rows is not None else ROWS)


class TestRows:
    def test_store_load_round_trip(self, backend):
        relation = make_relation()
        assert backend.store_relation("S1", relation) is True
        loaded = backend.load_relation("S1", "R")
        assert loaded == relation
        assert loaded.schema == relation.schema

    def test_identical_content_is_a_noop(self, backend):
        relation = make_relation()
        backend.store_relation("S1", relation)
        backend.cache_put("S1", "R", "comm_tag", b"key", b"value")
        # Re-storing the same rows must not invalidate the cache: this
        # is what keeps indexes warm across process restarts.
        assert backend.store_relation("S1", make_relation()) is False
        assert backend.cache_get("S1", "R", "comm_tag", b"key") == b"value"

    def test_changed_content_invalidates(self, backend):
        backend.store_relation("S1", make_relation())
        backend.cache_put("S1", "R", "comm_tag", b"key", b"value")
        changed = make_relation(rows=ROWS + [(4, "dan", False)])
        assert backend.store_relation("S1", changed) is True
        assert backend.cache_get("S1", "R", "comm_tag", b"key") is None
        assert backend.load_relation("S1", "R") == changed

    def test_namespaces_are_isolated(self, backend):
        backend.store_relation("S1", make_relation())
        assert backend.load_relation("S2", "R") is None
        assert backend.relation_names("S2") == []
        assert backend.relation_names("S1") == ["R"]

    def test_missing_relation_is_none(self, backend):
        assert backend.load_relation("S1", "nope") is None


class TestSelectPushdown:
    @pytest.mark.parametrize(
        "condition",
        [
            None,
            Comparison("k", ">=", 2),
            Comparison("name", "=", "ada"),
            Comparison("active", "=", True),
        ],
    )
    def test_matches_algebra_select(self, backend, condition):
        relation = make_relation()
        backend.store_relation("S1", relation)
        pushed = backend.select("S1", "R", condition)
        reference = (
            relation if condition is None else select(relation, condition)
        )
        assert sorted(pushed.rows) == sorted(reference.rows)
        assert pushed.schema.attributes == relation.schema.attributes

    def test_types_survive_the_round_trip(self, backend):
        backend.store_relation("S1", make_relation())
        result = backend.select("S1", "R", None)
        row = sorted(result.rows)[0]
        assert isinstance(row[0], int)
        assert isinstance(row[1], str)
        assert isinstance(row[2], bool)

    def test_unknown_relation_raises(self, backend):
        with pytest.raises(StorageError):
            backend.select("S1", "nope", None)


class TestBucketJoin:
    def test_matches_and_ordering(self, backend):
        left = [b"a", b"b", b"a"]
        right = [b"x", b"y"]
        pairs = [(b"a", b"y"), (b"b", b"x")]
        assert backend.bucket_join(left, right, pairs) == [
            (0, 1),
            (1, 0),
            (2, 1),
        ]

    def test_duplicate_pairs_deduplicate(self, backend):
        matches = backend.bucket_join(
            [b"a"], [b"x"], [(b"a", b"x"), (b"a", b"x")]
        )
        assert matches == [(0, 0)]

    def test_no_matches(self, backend):
        assert backend.bucket_join([b"a"], [b"x"], [(b"q", b"x")]) == []


class TestCacheAndEpochs:
    def test_epoch_starts_at_zero(self, backend):
        assert backend.key_epoch("S1") == 0

    def test_put_get(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k1", b"v1")
        assert backend.cache_get("S1", "R", "comm_tag", b"k1") == b"v1"
        assert backend.cache_get("S1", "R", "comm_tag", b"k2") is None
        assert backend.cache_get("S1", "R", "das_index", b"k1") is None

    def test_overwrite(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k", b"old")
        backend.cache_put("S1", "R", "comm_tag", b"k", b"new")
        assert backend.cache_get("S1", "R", "comm_tag", b"k") == b"new"

    def test_epoch_bump_drops_stale_entries(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k", b"v")
        assert backend.bump_key_epoch("S1") == 1
        assert backend.cache_get("S1", "R", "comm_tag", b"k") is None
        assert backend.cache_size("S1") == 0
        # Entries written under the new epoch are served again.
        backend.cache_put("S1", "R", "comm_tag", b"k", b"v2")
        assert backend.cache_get("S1", "R", "comm_tag", b"k") == b"v2"

    def test_epoch_bump_is_per_namespace(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k", b"v1")
        backend.cache_put("S2", "R", "comm_tag", b"k", b"v2")
        backend.bump_key_epoch("S1")
        assert backend.cache_get("S1", "R", "comm_tag", b"k") is None
        assert backend.cache_get("S2", "R", "comm_tag", b"k") == b"v2"

    def test_invalidate_relation_is_per_relation(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k", b"v1")
        backend.cache_put("S1", "Q", "comm_tag", b"k", b"v2")
        assert backend.invalidate_relation("S1", "R") == 1
        assert backend.cache_get("S1", "R", "comm_tag", b"k") is None
        assert backend.cache_get("S1", "Q", "comm_tag", b"k") == b"v2"

    def test_cache_size(self, backend):
        backend.cache_put("S1", "R", "comm_tag", b"k1", b"v")
        backend.cache_put("S1", "R", "das_index", b"k2", b"v")
        backend.cache_put("S2", "R", "comm_tag", b"k1", b"v")
        assert backend.cache_size("S1") == 2
        assert backend.cache_size() == 3


class TestSQLitePersistence:
    def test_everything_survives_a_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        first = SQLiteBackend(path)
        relation = make_relation()
        first.store_relation("S1", relation)
        first.cache_put("S1", "R", "comm_tag", b"k", b"v")
        first.bump_key_epoch("S2")
        first.close()

        second = SQLiteBackend(path)
        try:
            assert second.load_relation("S1", "R") == relation
            assert second.cache_get("S1", "R", "comm_tag", b"k") == b"v"
            assert second.key_epoch("S1") == 0
            assert second.key_epoch("S2") == 1
        finally:
            second.close()

    def test_in_memory_database_is_not_persistent(self):
        backend = SQLiteBackend(":memory:")
        try:
            assert backend.persistent is False
        finally:
            backend.close()


class TestSpecParsing:
    def test_none_and_empty(self):
        assert storage_from_spec(None) is None
        assert storage_from_spec("") is None

    def test_memory(self):
        backend = storage_from_spec("memory")
        assert isinstance(backend, MemoryBackend)

    def test_sqlite(self, tmp_path):
        backend = storage_from_spec(f"sqlite:{tmp_path / 's.db'}")
        try:
            assert isinstance(backend, SQLiteBackend)
            assert backend.persistent is True
        finally:
            backend.close()

    @pytest.mark.parametrize("spec", ["sqlite:", "postgres:db", "bogus"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(StorageError):
            storage_from_spec(spec)

