"""Mediated-join benchmark: one workload, one measured window, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload comm-bus --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the
window into an untraced and a traced half and prints the per-layer
ledger, measured by benchmark-owned wrappers around each layer's public
functions (see ``ledger.py`` and ``layers.py``).  Every query's result
is checked against ``reference_join``; the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero if any query failed or returned a wrong result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
#: Scratch space for SQLite stores and span dumps (git-ignored).
WORKDIR = os.path.join(ROOT, ".perfbench")
#: Set-ups per untraced run; set-up time is their median.
SETUP_REPEATS = 3
#: The per-layer metrics a traced run prints, in order.
PER_LAYER = (
    ("crypto.bigint.calls", "count/query"), ("crypto.bigint.self_s", "s/query"),
    ("crypto.fixedbase.calls", "count/query"), ("crypto.fixedbase.self_s", "s/query"),
    ("crypto.dem.calls", "count/query"), ("crypto.dem.bytes", "B/query"),
    ("crypto.dem.self_s", "s/query"),
    ("crypto.engine.batches", "count/query"), ("crypto.engine.items", "count/query"),
    ("crypto.engine.self_s", "s/query"),
    ("transport.codec.calls", "count/query"), ("transport.codec.bytes", "B/query"),
    ("transport.codec.self_s", "s/query"),
    ("transport.send.calls", "count/query"), ("transport.send.self_s", "s/query"),
    ("transport.retries", "count/query"), ("offthread_s", "s/query"),
    ("mediation.sizing.self_s", "s/query"),
    ("storage.cache.hits", "count/query"), ("storage.cache.misses", "count/query"),
    ("storage.cache.hit_ratio", "ratio"), ("storage.cache.warm_hit_ratio", "ratio"),
    ("storage.cache.errors", "count/query"),
    ("storage.get.self_s", "s/query"), ("storage.put.calls", "count/query"),
    ("storage.put.self_s", "s/query"), ("storage.rows.self_s", "s/query"),
    ("storage.invalidations", "count/write"), ("storage.bytes_per_user_byte", "ratio"),
    ("relational.self_s", "s/query"),
    ("core.request.self_s", "s/query"), ("core.delivery.self_s", "s/query"),
    ("core.post.self_s", "s/query"), ("unattributed_s", "s/query"),
    ("traced_query_s", "s/query"), ("ledger_residual_s", "s/query"),
    ("untraced_p50_s", "s"), ("traced_p50_s", "s"), ("tracing_overhead_s", "s"),
)
#: Ledger layers whose self time and counts feed PER_LAYER: layer ->
#: metric suffixes, each read from the ledger key LEDGER_KEY names.
LEDGER_KEY = {"calls": "calls", "batches": "calls", "bytes": "amount", "items": "amount"}
LAYER_FIELDS = {
    "crypto.bigint": ("calls",), "crypto.fixedbase": ("calls",),
    "crypto.dem": ("calls", "bytes"), "crypto.engine": ("batches", "items"),
    "transport.codec": ("calls", "bytes"), "transport.send": ("calls",),
    "mediation.sizing": (), "storage.get": (), "storage.put": ("calls",),
    "storage.rows": (), "relational": (), "core.request": (),
    "core.delivery": (), "core.post": (),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Samples:
    """What the client session measured in one window."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.writes: list[float] = []
        self.invalidated: list[int] = []
        #: Index-cache hits and lookups of queries that follow no write.
        self.warm_hits = 0
        self.warm_lookups = 0
        self.messages = 0
        self.wire_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Peak RSS after the first WRITE_EVERY queries: a fixed amount of
        #: work, so a faster program is not charged for the transcript its
        #: extra queries leave behind.
        self.rss_mb = 0.0
        self.wall = 0.0
        self.cpu = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def window(deployment, seconds: float, recorder=None) -> Samples:
    """Closed loop for ``seconds``: one query after another, with one
    write before every WRITE_EVERY-th query, each result checked.

    The window ends at the first whole cycle of WRITE_EVERY queries after
    ``seconds``, so every run has the same mix of writes and queries.
    """
    from workloads import WRITE_BURST, WRITE_EVERY

    session, storage = deployment.session, deployment.storage
    samples = Samples()
    cpu_start = time.process_time()
    start = time.perf_counter()
    index = 0
    after_write = False
    while index == 0 or index % WRITE_EVERY or time.perf_counter() < start + seconds:
        if index % WRITE_EVERY == WRITE_EVERY - 1:
            cached = storage.cache_size("S1") if storage is not None else 0
            # Collector off while the writes are timed, as timeit does: a
            # sub-millisecond write otherwise pays at random for the
            # garbage the queries before it left.
            gc.disable()
            try:
                began = time.perf_counter()
                for _ in range(WRITE_BURST):
                    session.write()
                samples.writes.append((time.perf_counter() - began) / WRITE_BURST)
            finally:
                gc.enable()
            if storage is not None:
                samples.invalidated.append(cached - storage.cache_size("S1"))
            session.refresh_reference()
            after_write = True
        cache = deployment.cache_stats() if storage is not None else None
        elapsed, ok, messages, wire_bytes, error = session.query(recorder)
        if cache is not None and not after_write:
            now = deployment.cache_stats()
            samples.warm_hits += now["hits"] - cache["hits"]
            samples.warm_lookups += sum(now.values()) - sum(cache.values())
        after_write = False
        samples.attempted += 1
        if ok:
            samples.latencies.append(elapsed)
            samples.messages += messages
            samples.wire_bytes += wire_bytes
        else:
            samples.failed += 1
            samples.errors.append(error)
        index += 1
        if index == WRITE_EVERY:
            samples.rss_mb = peak_rss_mb()
    samples.wall = time.perf_counter() - start
    samples.cpu = time.process_time() - cpu_start
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, pct).

    Below 11 samples no percentile qualifies and the maximum is returned
    as the 100th percentile.
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(total: Samples, setup_s: float) -> dict:
    done = len(total.latencies)
    tail_value, tail_pct = tail(total.latencies)
    print(f"queries: {total.attempted} attempted, {done} correct, "
          f"{total.failed} failed; tail = p{tail_pct:.1f} of {done} samples; "
          f"{len(total.writes)} writes; "
          f"error_rate {total.failed / total.attempted:.4f}; "
          f"peak RSS {peak_rss_mb():.1f} MB at the end of the window")
    return {
        "query_p50_s": (statistics.median(total.latencies), "s"),
        "query_tail_s": (tail_value, "s"),
        "queries_per_s": (done / total.wall, "1/s"),
        "cpu_s_per_query": (total.cpu / done, "s"),
        "wire_bytes_per_query": (total.wire_bytes / done, "B"),
        "messages_per_query": (total.messages / done, "count"),
        "write_p50_s": (statistics.median(total.writes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (total.rss_mb, "MB"),
    }


def per_layer(deployment, seconds: float, pair, recorder) -> tuple[dict, Samples]:
    """Untraced half, then traced half; returns the ledger metrics."""
    from layers import instrument
    from ledger import ledger
    from repro.crypto.backend import use_backend
    from repro.relational.encoding import encode_relation
    from repro.telemetry.metrics import MetricsRegistry, use_metrics
    from repro.transport.tcp import TRANSPORT_RETRIES_METRIC

    half = seconds / 2
    plain = window(deployment, half)
    cache_before = deployment.cache_stats()
    registry = MetricsRegistry()
    backend = instrument(recorder, deployment.storage)
    try:
        with use_backend(backend), use_metrics(registry):
            traced = window(deployment, half, recorder)
    finally:
        recorder.restore()
    both = Samples()
    both.attempted = plain.attempted + traced.attempted
    both.failed = plain.failed + traced.failed
    both.errors = plain.errors + traced.errors
    if both.failed:
        return {}, both
    cache_after = deployment.cache_stats()
    book = ledger(recorder.threads)
    queries = traced.attempted
    values: dict[str, float] = {}
    for layer, fields in LAYER_FIELDS.items():
        entry = book["layers"].get(layer, {"calls": 0, "amount": 0, "self_s": 0.0})
        values[f"{layer}.self_s"] = entry["self_s"] / queries
        for field in fields:
            values[f"{layer}.{field}"] = entry[LEDGER_KEY[field]] / queries
    cache = {key: cache_after[key] - cache_before[key] for key in cache_after}
    lookups = sum(cache.values())
    values.update({
        "transport.retries": registry.total(TRANSPORT_RETRIES_METRIC) / queries,
        "offthread_s": book["offthread_s"] / queries,
        "storage.cache.hits": cache["hits"] / queries,
        "storage.cache.misses": cache["misses"] / queries,
        "storage.cache.errors": cache["errors"] / queries,
        "storage.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "storage.cache.warm_hit_ratio": (traced.warm_hits / traced.warm_lookups
                                         if traced.warm_lookups else 0.0),
        "storage.invalidations": (statistics.mean(traced.invalidated)
                                  if traced.invalidated else 0.0),
        "storage.bytes_per_user_byte": (
            deployment.stored_bytes() / sum(
                len(encode_relation(r)) for r in (pair.relation_1, pair.relation_2))
            if deployment.storage is not None else 0.0),
        "unattributed_s": book["layers"].get("query", {"self_s": 0.0})["self_s"] / queries,
        "traced_query_s": book["root_s"] / queries,
        "ledger_residual_s": book["residual_s"] / queries,
        "untraced_p50_s": statistics.median(plain.latencies),
        "traced_p50_s": statistics.median(traced.latencies),
    })
    values["tracing_overhead_s"] = values["traced_p50_s"] - values["untraced_p50_s"]
    print(f"ledger: {queries} traced queries, {book['root_s']:.3f} s traced, "
          f"residual {book['residual_s']:.2e} s, off-thread "
          f"{book['offthread_s']:.3f} s {sorted(book['offthread_layers'])}")
    shares = sorted(((entry["self_s"], layer) for layer, entry in book["layers"].items()),
                    reverse=True)
    print("self-time shares: " + ", ".join(
        f"{layer} {100 * spent / book['root_s']:.1f}%" for spent, layer in shares))
    if abs(book["residual_s"]) > 1e-6 * max(book["root_s"], 1.0):
        raise SystemExit(f"ledger does not add up: residual {book['residual_s']} s")
    units = dict(PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in PER_LAYER}
    return metrics, both


def measure(workload, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0) -> tuple[dict, Samples]:
    """Set up, run one window and return ``(metrics, samples)``.

    ``metrics`` maps name -> (value, unit); it is empty if any query
    failed or returned a wrong result.
    """
    import gen
    import workloads
    from ledger import Recorder
    from repro.crypto.backend import PythonBackend, use_backend

    pair = gen.relation_pair(workload.domain, workload.overlap,
                             workload.rows_per_value, workload.key_type, seed)
    os.makedirs(WORKDIR, exist_ok=True)
    with use_backend(PythonBackend()):
        deployment = None
        setups = []
        for repeat in range(1 if trace else SETUP_REPEATS):
            if deployment is not None:
                deployment.close()
            start = time.perf_counter()
            deployment = workloads.Deployment(workload, pair, WORKDIR,
                                              f"{os.getpid()}-{repeat}")
            setups.append(time.perf_counter() - start)
        try:
            if trace:
                recorder = Recorder()
                metrics, total = per_layer(deployment, seconds, pair, recorder)
                recorder.dump(os.path.join(WORKDIR, f"spans-{workload.name}.jsonl"))
            else:
                total = window(deployment, seconds)
                metrics = {} if total.failed else end_to_end(
                    total, import_s + statistics.median(setups))
        finally:
            deployment.close()
    return metrics, total


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import workloads
    from repro.crypto.backend import available_backends
    import_s = time.perf_counter() - STARTED

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {workload.name}: {workload.shape()}; seed {args.seed}")
    print(f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"crypto backend python (available: {', '.join(available_backends())}), "
          f"RSA/Paillier/commutative keys {workloads.KEY_BITS} bits")
    metrics, total = measure(workload, args.seed, args.seconds, bool(args.trace),
                             import_s)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    for error in total.errors[:5]:
        print(f"FAILED: {error}")
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if total.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
