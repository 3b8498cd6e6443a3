"""Lightweight instrumentation of cryptographic primitive usage.

The paper's Table 2 lists which cryptographic primitives each protocol
applies (hash functions, commutative encryption, homomorphic encryption,
random numbers).  To *reproduce* that table from running code rather than
restate it, every primitive in :mod:`repro.crypto` reports each invocation
through :func:`record`.  Analyses install a :class:`PrimitiveCounter`
around a protocol run and read back exact operation counts.

Counting is opt-in and costs one dictionary lookup per primitive call when
no counter is installed.

:func:`record` feeds two sinks with different scopes:

* the :class:`PrimitiveCounter` stack is *thread-scoped*: a counter sees
  only the operations recorded on the thread that installed it, so one
  run's counts stay its own while other sessions run on other threads
  of the same process (the load generator does exactly that);
* the installed :class:`repro.telemetry.metrics.MetricsRegistry` is
  *process-wide*: its ``repro_crypto_primitive_ops_total`` family
  accumulates every thread's operations for Prometheus expositions and
  JSON snapshots.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from repro.telemetry import metrics as _metrics

_local = threading.local()


def _stack() -> list["PrimitiveCounter"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


class PrimitiveCounter:
    """Collects per-operation invocation counts of crypto primitives.

    Operation names are dotted strings such as ``"hash.ideal"``,
    ``"commutative.encrypt"``, ``"paillier.encrypt"`` or ``"random.key"``.
    :attr:`counts` maps each name to its invocation count; the prefix
    before the first dot is the primitive family, the granularity of the
    paper's Table 2 (:mod:`repro.analysis.primitives` categorizes them).
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def record(self, operation: str, amount: int = 1) -> None:
        self.counts[operation] += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrimitiveCounter({dict(self.counts)!r})"


def record(operation: str, amount: int = 1) -> None:
    """Report ``amount`` invocations of ``operation`` to this thread's
    counters and to the process-wide metrics registry (if any)."""
    for counter in _stack():
        counter.record(operation, amount)
    registry = _metrics.get_registry()
    if registry is not None:
        registry.record_primitive(operation, amount)


@contextmanager
def count_primitives() -> Iterator[PrimitiveCounter]:
    """Context manager installing a fresh :class:`PrimitiveCounter`.

    Counters nest: every counter on the stack sees every recorded
    operation, so an outer audit still observes operations recorded while
    an inner one is active.
    """
    counter = PrimitiveCounter()
    stack = _stack()
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.remove(counter)
