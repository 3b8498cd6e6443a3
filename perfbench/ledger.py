"""Per-layer time measured from outside the program.

:class:`Recorder` wraps the public functions of each layer (crypto,
transport, storage, relational, core) with timing wrappers owned by the
benchmark.  Each call becomes a span ``[layer, parent, start, end,
amount]`` in a per-thread list, so spans stay in memory and cost one
list append.  A span's self time is its duration minus the part of it
that its child spans cover; :func:`ledger` sums self times per layer
and checks that they add up to the traced query time.

The thread that creates the recorder is the client thread: spans are
recorded there only inside a root opened with :meth:`Recorder.root`.
Work on other threads (event loops, endpoints) is recorded as
off-thread time, which overlaps the client's wait.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

#: Layer name of a client-thread root span; its self time is the
#: benchmark's own time inside a measured query.
ROOT = "query"

LAYER, PARENT, START, END, AMOUNT = range(5)


class _ThreadSpans:
    def __init__(self, ident: int, client: bool) -> None:
        self.ident = ident
        self.client = client
        self.spans: list[list] = []
        self.stack: list[int] = []


class Recorder:
    """Collects spans from wrapped layer functions, per thread."""

    def __init__(self) -> None:
        self.client = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadSpans] = []
        self._undo: list[Callable[[], Any]] = []

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            ident = threading.get_ident()
            state = _ThreadSpans(ident, ident == self.client)
            self._local.state = state
            with self._lock:
                self.threads.append(state)
        return state

    def _open(self, state: _ThreadSpans, layer: str) -> list:
        parent = state.stack[-1] if state.stack else -1
        span = [layer, parent, time.perf_counter(), 0.0, 0]
        state.stack.append(len(state.spans))
        state.spans.append(span)
        return span

    @contextmanager
    def root(self):
        """A measured query on the client thread."""
        state = self._state()
        span = self._open(state, ROOT)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            state.stack.pop()

    def wrap(self, layer: str, func: Callable,
             amount: Callable[[tuple, dict, Any], int] | None = None) -> Callable:
        """``func`` with every call recorded as a ``layer`` span."""
        recorder = self

        @functools.wraps(func)
        def timed(*args, **kwargs):
            state = recorder._state()
            if state.client and not state.stack:
                return func(*args, **kwargs)
            span = recorder._open(state, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                state.stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, kwargs, result)
            return result

        return timed

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, name: str, layer: str, amount=None) -> None:
        """Replace ``owner.name`` with its timed wrapper until :meth:`restore`."""
        original = getattr(owner, name)
        self.on_restore(functools.partial(setattr, owner, name, original))
        setattr(owner, name, self.wrap(layer, original, amount))

    def patch_everywhere(self, module: Any, name: str, layer: str,
                         amount=None) -> None:
        """Patch a module function and every ``repro`` module that
        imported it by name, so call sites bound at import see it too."""
        original = getattr(module, name)
        wrapper = self.wrap(layer, original, amount)
        for loaded in list(sys.modules.values()):
            if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            if getattr(loaded, name, None) is original:
                self.on_restore(functools.partial(setattr, loaded, name, original))
                setattr(loaded, name, wrapper)

    def on_restore(self, undo: Callable[[], Any]) -> None:
        """Register one step of :meth:`restore`."""
        self._undo.append(undo)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span, one JSON list per line (thread, client, span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for state in self.threads:
                for span in state.spans:
                    handle.write(json.dumps([state.ident, state.client, *span]))
                    handle.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span of one thread.

    A span's self time is its duration minus the union of its children's
    intervals, clipped to the span.  ``spans`` are ``[layer, parent,
    start, end, amount]`` lists; ``parent`` indexes into ``spans`` or is
    -1 for a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def ledger(threads: Iterable[_ThreadSpans]) -> dict[str, Any]:
    """Per-layer totals over every root query span.

    Client threads record spans only inside roots, so every client span
    belongs to one query.  Returns ``layers`` (layer -> {"calls", "amount", "self_s"}),
    ``root_s`` (summed root durations), ``offthread_s`` (self time on
    non-client threads), ``offthread_layers`` and ``residual_s``: layer
    self times plus the root's own self time minus ``root_s``, which is
    zero when every child lies inside its parent.
    """
    layers: dict[str, dict[str, float]] = {}
    offthread: dict[str, float] = {}
    root_s = 0.0
    for state in threads:
        spans = state.spans
        selfs = self_times(spans)
        for index, span in enumerate(spans):
            if not state.client:
                offthread[span[LAYER]] = offthread.get(span[LAYER], 0.0) + selfs[index]
                continue
            if span[PARENT] < 0:
                root_s += span[END] - span[START]
            entry = layers.setdefault(
                span[LAYER], {"calls": 0, "amount": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["amount"] += span[AMOUNT]
            entry["self_s"] += selfs[index]
    accounted = sum(entry["self_s"] for entry in layers.values())
    return {
        "layers": layers,
        "root_s": root_s,
        "offthread_s": sum(offthread.values()),
        "offthread_layers": offthread,
        "residual_s": accounted - root_s,
    }
