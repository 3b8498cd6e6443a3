"""Native bigint backend — python-vs-gmpy2 speedups at production sizes.

Four legs, each measured under every available backend on the same
inputs so the ratios are host-independent:

* ``commutative`` — batched SRA tagging (Listing 3's hot loop): 2048-bit
  group, full-size secret exponent, one modexp per tag.
* ``paillier_encrypt`` — batched Paillier encryption with pinned
  nonces (two 2048-bit-exponent modexps per item at 4096-bit modulus).
* ``paillier_decrypt`` — batched CRT Paillier decryption.
* ``fixed_base`` — backend-independent: the engine's shared-base batch
  (windowed fixed-base table) against a naive per-item ``pow`` loop,
  both forced onto the pure-Python backend.  This is the leg a
  gmpy2-free host can measure honestly.

Every leg asserts bit-identical outputs across backends — the speedup
numbers are only meaningful because the arithmetic is interchangeable.
The JSON artifact (``BENCH_native_crypto.json``) is gated by
``scripts/check_perf_regression.py`` against the committed baseline in
the CI ``native-crypto`` job (the only job that installs gmpy2); the
ordinary perf-gate job skips this bench via ``--only``.

In full mode on a gmpy2 host the run also asserts the acceptance
criterion in-process: >= 5x native-vs-python on all three crypto legs.
"""

from __future__ import annotations

import json
import math
import os
import time

from conftest import OUT_DIR, smoke_mode, write_bench_json, write_report

from repro.crypto import commutative, paillier
from repro.crypto import backend as bk
from repro.crypto.engine import CryptoEngine
from repro.crypto.groups import commutative_group

SMOKE = smoke_mode()

GROUP_BITS = 256 if SMOKE else 2048
PAILLIER_BITS = 768 if SMOKE else 2048
N_COMMUTATIVE = 8 if SMOKE else 48
N_PAILLIER = 4 if SMOKE else 24
N_FIXED_BASE = 16 if SMOKE else 64

#: Acceptance floor for the native backend (ISSUE: >= 5x at 2048 bits).
NATIVE_FLOOR = 5.0

BACKENDS = list(bk.available_backends())
NATIVE = bk.native_available()

REPORT: dict = {
    "benchmark": "native_crypto",
    "smoke": SMOKE,
    "config": {
        "group_bits": GROUP_BITS,
        "paillier_bits": PAILLIER_BITS,
        "n_commutative": N_COMMUTATIVE,
        "n_paillier": N_PAILLIER,
        "n_fixed_base": N_FIXED_BASE,
        "backends": BACKENDS,
        "cpu_count": os.cpu_count(),
    },
    "legs": {},
}


def _derive_exponents(modulus: int, count: int, bits: int) -> list[int]:
    """Deterministic full-size odd exponents (no CSPRNG: reproducible)."""
    exponents = []
    x = (1 << (bits - 8)) // 7
    for i in range(count):
        x = (x * 0x9E3779B97F4A7C15 + i + 1) % modulus
        exponents.append((x | 1) | (1 << (bits - 16)))
    return exponents


def _speedup(seconds: dict[str, float]) -> float:
    """python wall-clock over the best non-python backend (1.0 solo)."""
    others = [t for name, t in seconds.items() if name != "python"]
    if not others:
        return 1.0
    return seconds["python"] / min(others)


def _record_leg(name: str, seconds: dict[str, float], items: int) -> float:
    speedup = round(_speedup(seconds), 2)
    REPORT["legs"][name] = {
        "items": items,
        "seconds": {b: round(t, 4) for b, t in seconds.items()},
        "us_per_op": {
            b: round(t / items * 1e6, 1) for b, t in seconds.items()
        },
        "speedup": speedup,
    }
    return speedup


def test_commutative_batch():
    group = commutative_group(GROUP_BITS)
    # Full-size secret exponent, derived deterministically and nudged
    # until it is a valid key (coprime to q).
    exponent = _derive_exponents(group.q, 1, GROUP_BITS - 2)[0] % group.q
    while math.gcd(exponent, group.q) != 1:
        exponent = (exponent + 1) % group.q or 3
    key = commutative.CommutativeKey(group, exponent)
    values = [(i + 2) * (i + 2) % group.p for i in range(N_COMMUTATIVE)]

    seconds: dict[str, float] = {}
    outputs = set()
    for name in BACKENDS:
        engine = CryptoEngine(backend=name, workers=0)
        started = time.perf_counter()
        tags = engine.batch_commutative_encrypt(key, values, validate=False)
        seconds[name] = time.perf_counter() - started
        outputs.add(tuple(tags))
    assert len(outputs) == 1, "backends produced diverging tags"
    REPORT["commutative_identical"] = True
    _record_leg("commutative", seconds, N_COMMUTATIVE)


def test_paillier_batches():
    key = paillier.generate_keypair(PAILLIER_BITS)
    public = key.public_key
    plaintexts = [(3 * i + 1) % public.n for i in range(N_PAILLIER)]
    # Pinned nonces: encryption is deterministic, so ciphertexts must be
    # bit-identical across backends (small nonces do not cheapen the
    # r^n exponentiation — the exponent n is full-size either way).
    randomness = [(5 * i + 7) % public.n for i in range(N_PAILLIER)]

    encrypt_seconds: dict[str, float] = {}
    decrypt_seconds: dict[str, float] = {}
    ciphertext_sets, plaintext_sets = set(), set()
    for name in BACKENDS:
        engine = CryptoEngine(backend=name, workers=0)
        started = time.perf_counter()
        ciphertexts = engine.batch_paillier_encrypt(
            public, plaintexts, randomness=randomness
        )
        encrypt_seconds[name] = time.perf_counter() - started
        ciphertext_sets.add(tuple(c.value for c in ciphertexts))

        started = time.perf_counter()
        decrypted = engine.batch_paillier_decrypt(key, ciphertexts)
        decrypt_seconds[name] = time.perf_counter() - started
        plaintext_sets.add(tuple(decrypted))
    assert len(ciphertext_sets) == 1, "backends produced diverging ciphertexts"
    assert plaintext_sets == {tuple(plaintexts)}
    REPORT["paillier_identical"] = True
    _record_leg("paillier_encrypt", encrypt_seconds, N_PAILLIER)
    _record_leg("paillier_decrypt", decrypt_seconds, N_PAILLIER)


def test_fixed_base_batch():
    """Windowed fixed-base table vs naive loop, pure Python only.

    Backend-independent by construction — both sides are forced onto
    the python backend — so this ratio is measurable (and gated) even
    on hosts without gmpy2.
    """
    group = commutative_group(GROUP_BITS)
    modulus, base = group.p, 4
    exponents = _derive_exponents(modulus, N_FIXED_BASE, GROUP_BITS)

    with bk.use_backend("python"):
        engine = CryptoEngine(backend="python", workers=0)
        started = time.perf_counter()
        batched = engine.batch_pow_shared_base(base, exponents, modulus)
        table_s = time.perf_counter() - started

        started = time.perf_counter()
        naive = [pow(base, e, modulus) for e in exponents]
        naive_s = time.perf_counter() - started

    assert batched == naive, "fixed-base table diverged from pow"
    speedup = round(naive_s / table_s, 2)
    REPORT["legs"]["fixed_base"] = {
        "items": N_FIXED_BASE,
        "seconds": {"naive": round(naive_s, 4), "table": round(table_s, 4)},
        "speedup": speedup,
    }


def test_write_report():
    """Assemble metrics, enforce acceptance, persist artifacts (last)."""
    legs = REPORT["legs"]
    for required in (
        "commutative", "paillier_encrypt", "paillier_decrypt", "fixed_base"
    ):
        assert required in legs, f"leg {required!r} did not run"
    results_identical = float(
        REPORT.get("commutative_identical") and REPORT.get("paillier_identical")
    )
    metrics = {
        "commutative_speedup": legs["commutative"]["speedup"],
        "paillier_encrypt_speedup": legs["paillier_encrypt"]["speedup"],
        "paillier_decrypt_speedup": legs["paillier_decrypt"]["speedup"],
        "fixed_base_speedup": legs["fixed_base"]["speedup"],
        "results_identical": results_identical,
    }
    # The gate block mirrors the committed baseline's contract; the CI
    # comparison always takes policy from the baseline file.
    gate = {
        "commutative_speedup": {"direction": "min", "tolerance": 0.0},
        "paillier_encrypt_speedup": {"direction": "min", "tolerance": 0.0},
        "paillier_decrypt_speedup": {"direction": "min", "tolerance": 0.0},
        "fixed_base_speedup": {"direction": "min", "tolerance": 0.25},
        "results_identical": {"direction": "min", "tolerance": 0.0},
    }
    write_bench_json(
        "native_crypto",
        metrics,
        gate,
        context={
            "group_bits": GROUP_BITS,
            "paillier_bits": PAILLIER_BITS,
            "native_available": NATIVE,
            "note": (
                "speedups are python-vs-best-native on this host; 1.0 "
                "means no native backend was installed"
            ),
        },
    )

    lines = [
        "Native bigint backend - python vs "
        + ("gmpy2" if NATIVE else "(no native backend installed)")
        + f" ({'smoke' if SMOKE else 'full'} mode)",
        f"group={GROUP_BITS}b paillier={PAILLIER_BITS}b "
        f"backends={','.join(BACKENDS)}",
    ]
    for name, leg in legs.items():
        seconds = " ".join(
            f"{b}={t:.3f}s" for b, t in leg["seconds"].items()
        )
        lines.append(
            f"{name:18s} n={leg['items']:<3d} {seconds}  "
            f"speedup={leg['speedup']:.2f}x"
        )
    write_report("native_crypto.txt", "\n".join(lines))

    json_path = OUT_DIR / "native_crypto_report.json"
    json_path.write_text(json.dumps(REPORT, indent=2) + "\n")

    assert results_identical == 1.0
    if not SMOKE and NATIVE:
        for leg_name in ("commutative", "paillier_encrypt", "paillier_decrypt"):
            speedup = legs[leg_name]["speedup"]
            assert speedup >= NATIVE_FLOOR, (
                f"{leg_name}: native only {speedup:.2f}x "
                f"(need >= {NATIVE_FLOOR}x)"
            )
    if not SMOKE:
        assert metrics["fixed_base_speedup"] >= 1.5, (
            f"fixed-base table only {metrics['fixed_base_speedup']:.2f}x"
        )
