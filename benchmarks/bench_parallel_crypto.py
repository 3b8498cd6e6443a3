"""Parallel/batched crypto engine — end-to-end and primitive speedups.

Three legs per protocol, all at production key sizes (2048-bit RSA and
Paillier moduli, 2048-bit SRA group):

* ``legacy`` — the pre-engine scalar path (:class:`ScalarBaseline`,
  defined here because nothing else needs it): Euler-criterion group
  membership, Carmichael Paillier decryption, plain (non-CRT) RSA, and
  one primitive call per tuple.
* ``serial`` — the batched engine without a pool: Jacobi membership,
  CRT Paillier and RSA decryption, batch dispatch in-process.
* ``pooled`` — the same engine with a 4-worker process pool forced on.

Every leg must produce the identical global result and the identical
primitive counts (this doubles as the CI divergence check between the
fast paths and the scalar reference, run in smoke mode with small keys
via ``REPRO_BENCH_SMOKE=1``).  In full mode the run asserts the acceptance
criteria: at least one protocol ≥ 2× end-to-end with 4 workers vs the
legacy serial path, and CRT Paillier decryption alone ≥ 2× vs
Carmichael.  Results land in ``benchmarks/out/BENCH_parallel_crypto.json``
and a rendered table in ``benchmarks/out/parallel_crypto.txt``.

Note on topology: speedups here are dominated by the algorithmic fast
paths (Jacobi, CRT); on a single-CPU container the process pool adds
dispatch overhead without adding cores, so ``pooled`` ≈ ``serial``.
The JSON records ``cpu_count`` so multi-core runs are comparable.
"""

from __future__ import annotations

import json
import os
import time

import pytest
from conftest import OUT_DIR, write_report

from repro import (
    CertificationAuthority,
    CommutativeConfig,
    DASConfig,
    Federation,
    PMConfig,
    run_join_query,
    setup_client,
)
from repro.crypto import hybrid, instrumentation, paillier
from repro.crypto.backend import active_backend
from repro.crypto.engine import CryptoEngine
from repro.crypto.homomorphic import PaillierScheme
from repro.errors import ParameterError
from repro.mediation.access_control import allow_all
from repro.relational.algebra import natural_join
from repro.relational.datagen import WorkloadSpec, generate

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

RSA_BITS = 1024 if SMOKE else 2048
PAILLIER_BITS = 768 if SMOKE else 2048
GROUP_BITS = 256 if SMOKE else 2048
WORKERS = 4
QUERY = "select * from R1 natural join R2"

REPORT: dict = {
    "benchmark": "parallel_crypto",
    "smoke": SMOKE,
    "config": {
        "rsa_bits": RSA_BITS,
        "paillier_bits": PAILLIER_BITS,
        "group_bits": GROUP_BITS,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "crypto_backend": active_backend().name,
    },
}


class ScalarBaseline(CryptoEngine):
    """The pre-engine scalar path: the ``legacy`` leg's engine.

    Overrides the batches whose engine versions take a fast path
    (Jacobi membership, CRT decryption) with scalar loops making the
    pre-engine choices; every other batch the protocols call is already
    a plain loop in a serial engine.  Never pools.
    """

    def __init__(self) -> None:
        super().__init__(workers=0)

    def batch_commutative_encrypt(self, key, values, validate=True):
        # Euler criterion on every input, whatever ``validate`` says.
        group, powmod = key.group, self.backend.powmod
        tags = []
        for value in values:
            if not (0 < value < group.p and powmod(value, group.q, group.p) == 1):
                raise ParameterError("input is not in the quadratic-residue domain")
            instrumentation.record("commutative.encrypt")
            tags.append(powmod(value, key.exponent, group.p))
        return tags

    def batch_scheme_decrypt(self, scheme, private_key, ciphertexts):
        if not isinstance(scheme, PaillierScheme):
            return [scheme.decrypt(private_key, c) for c in ciphertexts]
        return [paillier.decrypt_carmichael(private_key, c) for c in ciphertexts]

    def batch_hybrid_decrypt(self, private_key, ciphertexts, associated_data=b""):
        return [
            hybrid.decrypt(private_key, c, associated_data, use_crt=False)
            for c in ciphertexts
        ]


@pytest.fixture(scope="module")
def env():
    ca = CertificationAuthority(key_bits=RSA_BITS)
    client = setup_client(
        ca,
        identity="bench-parallel-client",
        properties={("role", "analyst")},
        rsa_bits=RSA_BITS,
        homomorphic_scheme=PaillierScheme(PAILLIER_BITS),
    )
    workload = generate(
        WorkloadSpec(
            domain_1=10,
            domain_2=10,
            overlap=5,
            rows_per_value_1=2,
            rows_per_value_2=2,
            payload_attributes=2,
            seed=2007,
        )
    )
    engines = {
        "legacy": ScalarBaseline(),
        "serial": CryptoEngine(workers=0),
        "pooled": CryptoEngine(workers=WORKERS, threshold=1),
    }
    yield {"ca": ca, "client": client, "workload": workload, "engines": engines}
    engines["pooled"].close()


def _federation(env) -> Federation:
    workload = env["workload"]
    federation = Federation(ca=env["ca"])
    federation.add_source("S1", [(workload.relation_1, allow_all())])
    federation.add_source("S2", [(workload.relation_2, allow_all())])
    federation.attach_client(env["client"])
    return federation


PROTOCOLS = [
    ("das", lambda: DASConfig(buckets=3)),
    ("commutative", lambda: CommutativeConfig(group_bits=GROUP_BITS)),
    ("private-matching", lambda: PMConfig()),
]


def test_end_to_end_speedups(env):
    expected = natural_join(
        env["workload"].relation_1, env["workload"].relation_2
    )
    protocols: dict[str, dict] = {}
    for protocol, make_config in PROTOCOLS:
        timings: dict[str, float] = {}
        counts: dict[str, dict] = {}
        for mode, engine in env["engines"].items():
            started = time.perf_counter()
            result = run_join_query(
                _federation(env),
                QUERY,
                protocol=protocol,
                config=make_config(),
                engine=engine,
            )
            timings[mode] = time.perf_counter() - started
            # Divergence gate (CI smoke job): every engine mode must
            # deliver the reference join, byte for byte.
            assert result.global_result == expected, (protocol, mode)
            counts[mode] = dict(result.primitive_counter.counts)
        # The fast paths change how primitives run, never how many.
        assert counts["legacy"] == counts["serial"] == counts["pooled"], protocol
        protocols[protocol] = {
            "seconds": {mode: round(t, 4) for mode, t in timings.items()},
            "speedup_serial_vs_legacy": round(
                timings["legacy"] / timings["serial"], 2
            ),
            "speedup_pooled_vs_legacy": round(
                timings["legacy"] / timings["pooled"], 2
            ),
        }
    REPORT["protocols"] = protocols
    if not SMOKE:
        best = max(
            p["speedup_pooled_vs_legacy"] for p in protocols.values()
        )
        assert best >= 2.0, f"no protocol reached 2x (best {best})"


def test_crt_paillier_decrypt_speedup():
    key = paillier.generate_keypair(PAILLIER_BITS)
    ciphertexts = [
        paillier.encrypt(key.public_key, 3**i % key.public_key.n)
        for i in range(12)
    ]

    def time_leg(decrypt):
        plaintexts = []
        started = time.perf_counter()
        for ciphertext in ciphertexts:
            plaintexts.append(decrypt(key, ciphertext))
        return plaintexts, (time.perf_counter() - started) / len(ciphertexts)

    carmichael_values, carmichael_s = time_leg(paillier.decrypt_carmichael)
    crt_values, crt_s = time_leg(paillier.decrypt_crt)
    assert crt_values == carmichael_values
    speedup = carmichael_s / crt_s
    REPORT["paillier_decrypt"] = {
        "bits": PAILLIER_BITS,
        "carmichael_us_per_op": round(carmichael_s * 1e6, 1),
        "crt_us_per_op": round(crt_s * 1e6, 1),
        "speedup": round(speedup, 2),
    }
    if not SMOKE:
        assert speedup >= 2.0, f"CRT decryption only {speedup:.2f}x"


def test_write_report():
    """Render the table and persist the JSON artifact (runs last)."""
    assert "protocols" in REPORT and "paillier_decrypt" in REPORT
    OUT_DIR.mkdir(exist_ok=True)
    json_path = OUT_DIR / "BENCH_parallel_crypto.json"
    json_path.write_text(json.dumps(REPORT, indent=2) + "\n")

    lines = [
        "Parallel/batched crypto engine - end-to-end protocol runs "
        f"({'smoke' if SMOKE else 'full'} mode)",
        f"keys: rsa={RSA_BITS} paillier={PAILLIER_BITS} group={GROUP_BITS}"
        f"  workers={WORKERS}  cpus={os.cpu_count()}",
        f"{'protocol':20s} {'legacy_s':>9s} {'serial_s':>9s} "
        f"{'pooled_s':>9s} {'serial_x':>9s} {'pooled_x':>9s}",
    ]
    for protocol, row in REPORT["protocols"].items():
        seconds = row["seconds"]
        lines.append(
            f"{protocol:20s} {seconds['legacy']:>9.3f} "
            f"{seconds['serial']:>9.3f} {seconds['pooled']:>9.3f} "
            f"{row['speedup_serial_vs_legacy']:>9.2f} "
            f"{row['speedup_pooled_vs_legacy']:>9.2f}"
        )
    micro = REPORT["paillier_decrypt"]
    lines.append(
        f"paillier decrypt ({micro['bits']} bits): "
        f"carmichael {micro['carmichael_us_per_op']:.0f}us -> "
        f"crt {micro['crt_us_per_op']:.0f}us "
        f"({micro['speedup']:.2f}x)"
    )
    write_report("parallel_crypto.txt", "\n".join(lines))
    print(f"[json written to {json_path}]")
