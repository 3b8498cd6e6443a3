"""Fault-injecting storage decorator (the ``storage`` injection site).

Wraps any :class:`~repro.storage.base.StorageBackend` and reports every
operation to the run's :class:`~repro.faults.injector.FaultInjector`
as an observation with ``site="storage"`` and
``kind="storage:<operation>"`` (sender and receiver are both the
namespace the operation targets).  Fired rules enact:

* ``delay`` — sleep ``delay_seconds`` before the operation (slow I/O),
* ``drop``  — raise :class:`~repro.errors.StorageError` (store down),
* ``corrupt`` — cache reads return bit-flipped bytes (the cache's
  integrity seal then rejects them); for any other operation it
  behaves like ``drop``.

Because the protocols reach caches only through
:class:`~repro.storage.base.IndexCache` (which converts StorageError
into a counted miss), injected cache faults degrade queries to
recomputing indexes — ``tests/faults`` asserts exactly that.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.errors import StorageError
from repro.faults.injector import FaultInjector
from repro.relational.conditions import Condition
from repro.relational.relation import Relation
from repro.storage.base import StorageBackend


def _corrupt(value: bytes | None) -> bytes | None:
    if value is None:
        return None
    if not value:
        return b"\xff"
    # Flip every bit of the first byte; the integrity seal every cached
    # value carries (storage.base._seal) detects the flip.
    return bytes([value[0] ^ 0xFF]) + value[1:]


class FaultyStorage(StorageBackend):
    """Backend decorator that subjects every operation to a fault plan."""

    def __init__(self, inner: StorageBackend, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector
        self.kind = inner.kind
        self.persistent = inner.persistent

    def _observe(self, operation: str, namespace: str) -> str | None:
        """Report the operation; returns the enacted action (or None).

        ``drop`` wins over ``corrupt`` wins over plain delay when
        multiple rules fire on one observation.
        """
        fired = self.injector.observe(
            site="storage",
            sender=namespace,
            receiver=namespace,
            kind=f"storage:{operation}",
        )
        action: str | None = None
        for rule in fired:
            if rule.action == "delay" and rule.delay_seconds > 0:
                time.sleep(rule.delay_seconds)
            elif rule.action == "drop":
                action = "drop"
            elif rule.action == "corrupt" and action != "drop":
                action = "corrupt"
        return action

    def _gate(self, operation: str, namespace: str) -> None:
        action = self._observe(operation, namespace)
        if action is not None:
            raise StorageError(
                f"injected storage fault ({action}) during {operation}"
            )

    # -- rows ------------------------------------------------------------

    def store_relation(self, namespace: str, relation: Relation) -> bool:
        self._gate("store_relation", namespace)
        return self.inner.store_relation(namespace, relation)

    def load_relation(self, namespace: str, name: str) -> Relation | None:
        self._gate("load_relation", namespace)
        return self.inner.load_relation(namespace, name)

    def relation_names(self, namespace: str) -> list[str]:
        self._gate("relation_names", namespace)
        return self.inner.relation_names(namespace)

    def select(
        self, namespace: str, name: str, condition: Condition | None
    ) -> Relation:
        self._gate("select", namespace)
        return self.inner.select(namespace, name, condition)

    def bucket_join(
        self,
        left_values: Sequence[bytes],
        right_values: Sequence[bytes],
        pairs: Iterable[tuple[bytes, bytes]],
    ) -> list[tuple[int, int]]:
        self._gate("bucket_join", "mediator")
        return self.inner.bucket_join(left_values, right_values, pairs)

    # -- key epochs ------------------------------------------------------

    def key_epoch(self, namespace: str) -> int:
        self._gate("key_epoch", namespace)
        return self.inner.key_epoch(namespace)

    def bump_key_epoch(self, namespace: str) -> int:
        self._gate("bump_key_epoch", namespace)
        return self.inner.bump_key_epoch(namespace)

    # -- cache -----------------------------------------------------------

    def cache_get(
        self, namespace: str, relation: str, kind: str, key: bytes
    ) -> bytes | None:
        action = self._observe("cache_get", namespace)
        if action == "drop":
            raise StorageError("injected storage fault (drop) during cache_get")
        value = self.inner.cache_get(namespace, relation, kind, key)
        if action == "corrupt":
            return _corrupt(value)
        return value

    def cache_put(
        self, namespace: str, relation: str, kind: str, key: bytes, value: bytes
    ) -> None:
        self._gate("cache_put", namespace)
        self.inner.cache_put(namespace, relation, kind, key, value)

    def invalidate_relation(self, namespace: str, relation: str) -> int:
        self._gate("invalidate_relation", namespace)
        return self.inner.invalidate_relation(namespace, relation)

    def cache_size(self, namespace: str | None = None) -> int:
        return self.inner.cache_size(namespace)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> str:
        return f"faulty({self.inner.describe()})"
