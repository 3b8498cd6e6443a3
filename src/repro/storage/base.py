"""Storage backend contract and the amortized index-cache layer.

The paper's data plane keeps every relation in Python memory and re-pays
the dominant crypto cost (encrypting join attributes) on every query.
Following "Equi-Joins over Encrypted Data for Series of Queries"
(arXiv 2103.05792), this module introduces a pluggable storage engine
that persists

* **relation rows** — the authoritative, schema-typed data of each
  datasource (and the mediator's registry state where relevant),
* **encrypted-index caches** — per-``(namespace, relation)`` key/value
  entries holding commutative tags and double-encryptions, hybrid tuple
  ciphertexts, DAS index tables and encrypted tuples, and Paillier
  polynomial coefficients, all keyed by a **key epoch**.

Cache semantics:

* every entry is written under the namespace's current key epoch; a key
  rotation (``bump_key_epoch``) makes all earlier entries stale and
  eagerly drops them;
* any row mutation of a relation invalidates every cache entry for that
  relation (``invalidate_relation``) — the cached artifacts are
  functions of the row set;
* cache *reads and writes are soft*: :class:`IndexCache` converts
  :class:`~repro.errors.StorageError` into a miss (counted as an
  ``error``), so protocols degrade to recomputing the index instead of
  failing the query when the cache store is unavailable;
* every protocol reaches the cache through one path,
  :func:`cache_through`: serve the hits, compute the misses as one
  batch, write them back.  The caller supplies the value encoding (the
  protocols pass the transport codec's ``encode_value``/``decode_value``,
  which this layer may not import), and a hit counts only once the
  stored value decodes.

Backends implement the small abstract surface below.  The SQLite schema
is deliberately vanilla (typed row tables plus one key/value cache
table) so a Postgres backend can implement the same contract later.
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ReproError, StorageError
from repro.relational.conditions import Condition
from repro.relational.encoding import encode_relation
from repro.relational.relation import Relation, Row
from repro.telemetry.metrics import get_registry

#: Cache entry kinds — one namespace of keys per cached artifact family.
KIND_COMM_KEY = "comm_key"
KIND_COMM_TAG = "comm_tag"
KIND_COMM_DOUBLE = "comm_double"
KIND_COMM_TUPLES = "comm_tuples"
KIND_DAS_INDEX = "das_index"
KIND_DAS_TUPLE = "das_tuple"
KIND_PM_COEFFS = "pm_coeffs"

CACHE_HITS_METRIC = "repro_storage_cache_hits_total"
CACHE_MISSES_METRIC = "repro_storage_cache_misses_total"
CACHE_ERRORS_METRIC = "repro_storage_cache_errors_total"

T = TypeVar("T")


def relation_fingerprint(relation: Relation) -> bytes:
    """Content digest of a relation (rows + schema), 16 bytes.

    Cache keys for artifacts derived from a *filtered view* (the partial
    result after access control and selection pushdown) embed this
    digest, so two queries share cache entries exactly when they operate
    on the same row set.
    """
    return hashlib.sha256(encode_relation(relation)).digest()[:16]


@dataclass
class CacheStats:
    """Counters for one cache client (usually one datasource)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
        }

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.puts += other.puts
        self.errors += other.errors


@dataclass(frozen=True)
class StoredRelation:
    """A persisted relation plus its stored content fingerprint."""

    relation: Relation
    fingerprint: bytes


class StorageBackend(abc.ABC):
    """Abstract persistent store for rows and encrypted-index caches.

    ``namespace`` is the owning party (datasource name); all methods are
    namespace-scoped so one backend instance can serve a whole
    federation (each source still only ever asks for its own namespace).
    """

    #: Short backend identifier ("memory", "sqlite").
    kind: str = "abstract"
    #: Whether data survives process exit.
    persistent: bool = False

    # -- rows (authoritative data plane) --------------------------------

    @abc.abstractmethod
    def store_relation(self, namespace: str, relation: Relation) -> bool:
        """Persist ``relation`` under ``namespace``.

        Returns ``True`` if the stored content *changed* (new relation,
        or rows differ from what was persisted) — in which case the
        backend has already invalidated the relation's cache entries.
        Storing identical content is a no-op that keeps caches warm.
        """

    @abc.abstractmethod
    def load_relation(self, namespace: str, name: str) -> Relation | None:
        """Load a persisted relation, or ``None`` if absent."""

    @abc.abstractmethod
    def relation_names(self, namespace: str) -> list[str]:
        """Names of relations persisted under ``namespace``, sorted."""

    @abc.abstractmethod
    def select(
        self, namespace: str, name: str, condition: Condition | None
    ) -> Relation:
        """Evaluate ``sigma_condition(relation)`` inside the backend.

        This is the pushdown entry point: the SQLite backend compiles
        the condition to a WHERE clause; the memory backend falls back
        to the Python evaluator.  Raises StorageError if the relation is
        not stored.
        """

    # -- server-query pushdown ------------------------------------------

    @abc.abstractmethod
    def bucket_join(
        self,
        left_values: Sequence[bytes],
        right_values: Sequence[bytes],
        pairs: Iterable[tuple[bytes, bytes]],
    ) -> list[tuple[int, int]]:
        """Positions ``(i, j)`` with ``(left_values[i], right_values[j])``
        matching some ``(lv, rv)`` pair — the DAS server query
        ``sigma_CondS(R1S x R2S)`` over bucket index values.

        The result is sorted by ``(i, j)``, so all backends agree on the
        transcript ordering.
        """

    # -- key epochs ------------------------------------------------------

    @abc.abstractmethod
    def key_epoch(self, namespace: str) -> int:
        """Current key epoch of ``namespace`` (starts at 0)."""

    @abc.abstractmethod
    def bump_key_epoch(self, namespace: str) -> int:
        """Rotate keys: increment the epoch and drop all stale cache
        entries written under earlier epochs.  Returns the new epoch."""

    # -- encrypted-index cache ------------------------------------------

    @abc.abstractmethod
    def cache_get(
        self, namespace: str, relation: str, kind: str, key: bytes
    ) -> bytes | None:
        """Value stored for ``key`` at the *current* epoch, else None."""

    @abc.abstractmethod
    def cache_put(
        self, namespace: str, relation: str, kind: str, key: bytes, value: bytes
    ) -> None:
        """Store ``value`` under the current epoch (overwrites)."""

    @abc.abstractmethod
    def invalidate_relation(self, namespace: str, relation: str) -> int:
        """Drop every cache entry for ``relation``; returns the count."""

    @abc.abstractmethod
    def cache_size(self, namespace: str | None = None) -> int:
        """Number of live cache entries (optionally one namespace)."""

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (connections, file handles)."""

    def describe(self) -> str:
        return self.kind


#: Truncated-SHA256 envelope appended to every cache value by
#: :class:`IndexCache` — a uniform integrity seal, so bit rot (or the
#: fault injector's ``corrupt`` action) in *any* cached artifact is
#: detected at read time and degrades to a recompute, never to a wrong
#: join result.  Bare integers (commutative tags) have no inherent
#: framing, so without this a flipped bit would decode silently.
_SEAL_BYTES = 8


def _seal(value: bytes) -> bytes:
    return value + hashlib.sha256(value).digest()[:_SEAL_BYTES]


def _unseal(data: bytes) -> bytes | None:
    if len(data) < _SEAL_BYTES:
        return None
    value, seal = data[:-_SEAL_BYTES], data[-_SEAL_BYTES:]
    if hashlib.sha256(value).digest()[:_SEAL_BYTES] != seal:
        return None
    return value


@dataclass
class IndexCache:
    """Soft-failure cache facade bound to one backend namespace.

    Protocol code talks to this object, never to the backend directly:
    every backend error is swallowed into a miss (and counted), so a
    broken or fault-injected cache store degrades the protocols to the
    paper's recompute-everything behavior instead of failing queries.
    Values are integrity-sealed (see :func:`_seal`); a failed seal check
    counts as an ``error`` and reads as a miss.
    """

    backend: StorageBackend
    namespace: str
    stats: CacheStats = field(default_factory=CacheStats)

    def _count(self, metric: str, kind: str) -> None:
        registry = get_registry()
        if registry is not None:
            registry.counter(
                metric,
                {"backend": self.backend.kind, "kind": kind},
                help_text="Encrypted-index cache accesses by outcome",
            ).inc()

    def count_error(self, kind: str) -> None:
        """One failed store access: in the stats and the metric alike."""
        self.stats.errors += 1
        self._count(CACHE_ERRORS_METRIC, kind)

    def _get(self, relation: str, kind: str, key: bytes) -> bytes | None:
        try:
            sealed = self.backend.cache_get(self.namespace, relation, kind, key)
        except StorageError:
            self.count_error(kind)
            return None
        if sealed is None:
            self.stats.misses += 1
            self._count(CACHE_MISSES_METRIC, kind)
            return None
        value = _unseal(sealed)
        if value is None:  # corrupted at rest: recompute, don't trust it
            self.count_error(kind)
        return value

    def _put(self, relation: str, kind: str, key: bytes, value: bytes) -> None:
        try:
            self.backend.cache_put(
                self.namespace, relation, kind, key, _seal(value)
            )
        except StorageError:
            self.count_error(kind)
            return
        self.stats.puts += 1

    def through(
        self,
        relation: str,
        kind: str,
        slots: Sequence[bytes],
        compute: Callable[[list[int]], Sequence[T]],
        encode: Callable[[T], bytes],
        decode: Callable[[bytes], T],
    ) -> list[T]:
        """The artifact of every slot: cache hits, then the misses.

        A stored value is a hit only once ``decode`` accepts it; a value
        it rejects (any :class:`~repro.errors.ReproError`) counts as an
        error and is recomputed.  ``compute`` receives every missing
        position in one call, so the protocol still issues one engine
        batch, and each fresh value is written back through ``encode``.
        """
        values: list = [None] * len(slots)
        missing: list[int] = []
        for position, slot in enumerate(slots):
            blob = self._get(relation, kind, slot)
            if blob is not None:
                try:
                    values[position] = decode(blob)
                except ReproError:
                    self.count_error(kind)
                else:
                    self.stats.hits += 1
                    self._count(CACHE_HITS_METRIC, kind)
                    continue
            missing.append(position)
        if missing:
            for position, value in zip(missing, compute(missing)):
                values[position] = value
                self._put(relation, kind, slots[position], encode(value))
        return values


def cache_through(
    cache: IndexCache | None,
    relation: str,
    kind: str,
    count: int,
    slots: Callable[[], Sequence[bytes]],
    compute: Callable[[list[int]], Sequence[T]],
    encode: Callable[[T], bytes],
    decode: Callable[[bytes], T],
) -> list[T]:
    """:meth:`IndexCache.through` for ``count`` artifacts, or — with no
    cache — ``compute`` over every position.  ``slots`` is only called
    when a cache is attached, so storage-free runs never pay for the
    digests that cache keys embed."""
    if cache is None:
        return list(compute(list(range(count)))) if count else []
    return cache.through(relation, kind, slots(), compute, encode, decode)


def typed(
    decode: Callable[[bytes], object], cls: type[T]
) -> Callable[[bytes], T]:
    """``decode`` narrowed to exactly ``cls``: a stored value of another
    type (format drift, a foreign writer) is a :class:`StorageError`."""

    def checked(blob: bytes) -> T:
        value = decode(blob)
        if type(value) is not cls:
            raise StorageError(
                f"cached {type(value).__name__} where {cls.__name__} belongs"
            )
        return value

    return checked
