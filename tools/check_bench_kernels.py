#!/usr/bin/env python3
"""CI gate for the dense-kernel benchmark trajectory.

Validates a freshly produced BENCH_kernels.json (usually a --smoke run)
against the committed full-size trajectory:

  1. both files parse, carry the schema_version-2 keys (including the
     blocking profile actually used), and report zero correctness
     failures (every kernel matched its reference, the compensated-dot
     fixtures were exact, and the mixed-path singular values stayed
     within refinement tolerance);
  2. claim fields are honest: a smoke run must emit them as null —
     never as fabricated zeros — and a full run must emit them all;
  3. the committed trajectory's acceptance claims hold: the packed fp64
     GEMM beats the seed kernel at 512^3, the fp32 engine reaches
     >= 1.5x the fp64 engine at 512^3, the mixed-precision randomized
     SVD reaches >= 1.2x fp64 end-to-end at 4096x2048 rank 64 while its
     refined singular values stay within 1e-10 relative of fp64, and
     every recorded speedup field is consistent with the seconds it was
     derived from;
  4. for every result entry present in BOTH files (matched on
     kernel/m/n/k/threads) the deterministic flop model agrees exactly —
     a drift means a kernel changed its arithmetic, which wall-clock
     noise on a shared runner can never flag.

Usage: check_bench_kernels.py FRESH_JSON COMMITTED_JSON
"""

import sys

import benchlib
from benchlib import fail

REQUIRED_TOP = [
    "bench",
    "schema_version",
    "smoke",
    "hardware_concurrency",
    "blocking",
    "results",
    "gemm_512_seed_seconds",
    "gemm_512_packed_seconds",
    "gemm_512_speedup_vs_seed",
    "gemm_f32_512_seconds",
    "gemm_f32_512_speedup_vs_f64",
    "mixed_rsvd_double_seconds",
    "mixed_rsvd_mixed_seconds",
    "mixed_rsvd_speedup",
    "mixed_rsvd_sigma_rel_err",
    "single_rsvd_sigma_rel_err",
    "failures",
]
REQUIRED_RESULT = ["kernel", "m", "n", "k", "threads", "seconds", "gflops", "flops"]
REQUIRED_BLOCKING = ["mc", "kc", "nc", "mr", "nr"]
CLAIM_FIELDS = [
    "gemm_512_seed_seconds",
    "gemm_512_packed_seconds",
    "gemm_512_speedup_vs_seed",
    "gemm_f32_512_seconds",
    "gemm_f32_512_speedup_vs_f64",
    "mixed_rsvd_double_seconds",
    "mixed_rsvd_mixed_seconds",
    "mixed_rsvd_speedup",
    "mixed_rsvd_sigma_rel_err",
    "single_rsvd_sigma_rel_err",
]

RSVD_CLAIM_POINT = {"m": 4096, "n": 2048, "k": 64}
F32_SPEEDUP_BAR = 1.5
MIXED_SPEEDUP_BAR = 1.2
SIGMA_REL_ERR_BAR = 1e-10


def load(path):
    doc = benchlib.load_record(
        path, "kernels", 2, REQUIRED_TOP, {"results": REQUIRED_RESULT})
    blocking = doc["blocking"]
    for prec in ("f64", "f32"):
        if prec not in blocking:
            fail(f"{path}: blocking missing '{prec}'")
        for key in REQUIRED_BLOCKING:
            if not isinstance(blocking[prec].get(key), int):
                fail(f"{path}: blocking.{prec}.{key} missing or not an int")
    if not isinstance(blocking.get("qr_block"), int):
        fail(f"{path}: blocking.qr_block missing or not an int")
    if doc["failures"] != 0:
        fail(f"{path}: {doc['failures']} correctness failures recorded")
    # Honesty gate (the bug this schema revision fixed): a smoke run has
    # no full-size measurements, so its claim fields must be null — a
    # zero here is a fabricated number.
    for field in CLAIM_FIELDS:
        value = doc[field]
        if doc["smoke"]:
            if value is not None:
                fail(
                    f"{path}: smoke run carries claim field '{field}'="
                    f"{value!r} (must be null — smoke sizes cannot "
                    f"support the claims)"
                )
        else:
            if not isinstance(value, (int, float)) or value <= 0:
                fail(f"{path}: full run claim field '{field}'={value!r} invalid")
    return doc


def result_key(e):
    return (e["kernel"], e["m"], e["n"], e["k"], e["threads"])


def check_speedup_consistency(doc, num_key, den_key, speedup_key):
    num, den, speedup = doc[num_key], doc[den_key], doc[speedup_key]
    want = num / den
    if abs(speedup - want) / want > 1e-6:
        fail(
            f"committed trajectory: {speedup_key}={speedup:.6g} inconsistent "
            f"with {num_key}/{den_key}={want:.6g}"
        )


def check_committed_claims(doc):
    if doc["smoke"]:
        fail("committed trajectory is a smoke run — claims need a full run")
    check_speedup_consistency(
        doc, "gemm_512_seed_seconds", "gemm_512_packed_seconds",
        "gemm_512_speedup_vs_seed")
    check_speedup_consistency(
        doc, "gemm_512_packed_seconds", "gemm_f32_512_seconds",
        "gemm_f32_512_speedup_vs_f64")
    check_speedup_consistency(
        doc, "mixed_rsvd_double_seconds", "mixed_rsvd_mixed_seconds",
        "mixed_rsvd_speedup")
    if doc["gemm_512_speedup_vs_seed"] <= 1.0:
        fail(
            "committed trajectory: packed gemm "
            f"{doc['gemm_512_speedup_vs_seed']:.2f}x does not beat the seed "
            "kernel at 512^3"
        )
    if doc["gemm_f32_512_speedup_vs_f64"] < F32_SPEEDUP_BAR:
        fail(
            "committed trajectory: fp32 gemm "
            f"{doc['gemm_f32_512_speedup_vs_f64']:.2f}x below the "
            f"{F32_SPEEDUP_BAR}x bar vs fp64 at 512^3"
        )
    if doc["mixed_rsvd_speedup"] < MIXED_SPEEDUP_BAR:
        fail(
            "committed trajectory: mixed randomized SVD "
            f"{doc['mixed_rsvd_speedup']:.2f}x below the "
            f"{MIXED_SPEEDUP_BAR}x bar vs fp64 end-to-end"
        )
    if doc["mixed_rsvd_sigma_rel_err"] > SIGMA_REL_ERR_BAR:
        fail(
            "committed trajectory: mixed-path singular values drifted "
            f"{doc['mixed_rsvd_sigma_rel_err']:.3e} relative from fp64 "
            f"(bar {SIGMA_REL_ERR_BAR:.0e})"
        )
    # The claim must have been measured at the acceptance shape.
    rsvd = [e for e in doc["results"] if e["kernel"] == "rsvd_mixed"]
    if not any(
        e["m"] == RSVD_CLAIM_POINT["m"]
        and e["n"] == RSVD_CLAIM_POINT["n"]
        and e["k"] == RSVD_CLAIM_POINT["k"]
        for e in rsvd
    ):
        fail(
            "committed trajectory: no rsvd_mixed entry at the acceptance "
            f"point {RSVD_CLAIM_POINT}"
        )


def main(argv):
    fresh_path, committed_path, _ = benchlib.parse_gate_args(argv, __doc__)
    fresh = load(fresh_path)
    committed = load(committed_path)
    check_committed_claims(committed)

    compared = 0
    for key, e, ref in benchlib.match_entries(
            fresh["results"], committed["results"], result_key):
        # The flop model is an exact function of (kernel, shape): any
        # drift means a kernel changed its arithmetic.
        benchlib.gate_exact(key, "flop model", e["flops"], ref["flops"])
        compared += 1
    benchlib.require_compared(compared)

    print(
        f"OK: {compared} matched entries, claims hold (packed "
        f"{committed['gemm_512_speedup_vs_seed']:.2f}x vs seed, fp32 "
        f"{committed['gemm_f32_512_speedup_vs_f64']:.2f}x vs fp64 at 512^3, "
        f"mixed rsvd {committed['mixed_rsvd_speedup']:.2f}x with sigma err "
        f"{committed['mixed_rsvd_sigma_rel_err']:.2e})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
