"""Persistent encrypted storage engine (rows + amortized index caches).

See :mod:`repro.storage.base` for the backend contract and cache
semantics, :mod:`repro.storage.memory` / :mod:`repro.storage.sqlite`
for the two shipped backends, and ``docs/storage.md`` for the design
notes (schema, pushdown, leakage of data at rest).
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.storage.base import (
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
    CacheStats,
    IndexCache,
    StorageBackend,
    relation_fingerprint,
)
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite import SQLiteBackend


def storage_from_spec(spec: str | None) -> StorageBackend | None:
    """Build a backend from a CLI-style spec.

    * ``None`` / ``""`` — no storage (the pre-storage data plane),
    * ``"memory"`` — in-process :class:`MemoryBackend`,
    * ``"sqlite:PATH"`` — durable :class:`SQLiteBackend` at ``PATH``
      (``sqlite::memory:`` gives a private, non-persistent database).
    """
    if spec is None or spec == "":
        return None
    if spec == "memory":
        return MemoryBackend()
    if spec.startswith("sqlite:"):
        path = spec[len("sqlite:"):]
        if not path:
            raise StorageError("sqlite storage spec needs a path: sqlite:PATH")
        return SQLiteBackend(path)
    raise StorageError(
        f"unknown storage spec {spec!r}; expected 'memory' or 'sqlite:PATH'"
    )


__all__ = [
    "CACHE_ERRORS_METRIC",
    "CACHE_HITS_METRIC",
    "CACHE_MISSES_METRIC",
    "KIND_COMM_DOUBLE",
    "KIND_COMM_KEY",
    "KIND_COMM_TAG",
    "KIND_COMM_TUPLES",
    "KIND_DAS_INDEX",
    "KIND_DAS_TUPLE",
    "KIND_PM_COEFFS",
    "CacheStats",
    "IndexCache",
    "MemoryBackend",
    "SQLiteBackend",
    "StorageBackend",
    "StorageError",
    "relation_fingerprint",
    "storage_from_spec",
]
