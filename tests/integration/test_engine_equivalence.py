"""Engine-mode equivalence: serial and pooled runs must agree.

Acceptance invariant for the batched crypto engine: for every protocol,
a run under the pooled engine (process pool forced on via ``workers=2,
threshold=1``) must produce the *same global result* and the *same
primitive-counter totals* as a run under the serial engine — the pool
must be invisible except for wall-clock time.  That the algorithmic
fast paths (Jacobi membership, CRT decryption) change neither results
nor operation counts against the pre-engine scalar path is checked end
to end by ``benchmarks/bench_parallel_crypto.py`` (its ``legacy`` leg).
"""

import pytest

from repro import CommutativeConfig, DASConfig, PMConfig, run_join_query
from repro.crypto.engine import CryptoEngine
from repro.relational.algebra import natural_join

QUERY = "select * from R1 natural join R2"

PROTOCOL_MATRIX = [
    ("das", DASConfig(buckets=3)),
    ("commutative", CommutativeConfig()),
    ("private-matching", PMConfig()),
]


@pytest.fixture(scope="module")
def engines():
    serial = CryptoEngine(workers=0)
    pooled = CryptoEngine(workers=2, threshold=1)
    yield {"serial": serial, "pooled": pooled}
    pooled.close()


def run_with(engine, make_federation, workload, protocol, config):
    federation = make_federation(workload)
    result = run_join_query(
        federation, QUERY, protocol=protocol, config=config, engine=engine
    )
    return result


@pytest.mark.parametrize(
    "protocol,config", PROTOCOL_MATRIX, ids=lambda v: str(v).split("(")[0]
)
def test_pooled_engine_is_invisible(
    engines, make_federation, workload, protocol, config
):
    expected_join = natural_join(workload.relation_1, workload.relation_2)
    results = {
        mode: run_with(engine, make_federation, workload, protocol, config)
        for mode, engine in engines.items()
    }
    for mode, result in results.items():
        assert result.global_result == expected_join, mode

    serial_counts = dict(results["serial"].primitive_counter.counts)
    assert serial_counts, "serial run recorded no primitives"
    # Satellite invariant: primitive counts survive the process pool —
    # workers count in their own process and the engine replays the
    # totals into the driver's counter.
    assert dict(results["pooled"].primitive_counter.counts) == serial_counts


def test_pooled_engine_reuse_across_protocols(engines, make_federation, workload):
    """One long-lived pooled engine serves consecutive protocol runs."""
    pooled = engines["pooled"]
    for protocol, config in PROTOCOL_MATRIX:
        result = run_with(pooled, make_federation, workload, protocol, config)
        assert result.global_result == natural_join(
            workload.relation_1, workload.relation_2
        )
