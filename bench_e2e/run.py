#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench_e2e/run.py --test

The first form builds the library and the benchmark from source into
.bench_build/e2e (a no-op when up to date), runs one measurement and
prints the benchmark's output: the run manifest, then the result object
as the last line. The manifest is also written to .bench_build/manifests/.
--test builds everything and runs the benchmark's own tests.

Build output goes to stderr. The exit code is non-zero, with no result
printed, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUN_TIMEOUT_S = 170


def build(targets):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("bench_e2e: build failed: " + " ".join(cmd))


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd, killing it (and waiting for it) if it outlives timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"bench_e2e: run exceeded {timeout} s")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        build(["all"])
        code, _ = run_checked(["ctest", "--output-on-failure", "-j", "2"],
                              RUN_TIMEOUT_S * 4, cwd=BUILD)
        sys.exit(code)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build(["bench_e2e"])
    scratch = os.path.join(ROOT, ".bench_build", "scratch")
    manifests = os.path.join(ROOT, ".bench_build", "manifests")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(manifests, exist_ok=True)
    manifest = os.path.join(
        manifests, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [os.path.join(BUILD, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scratch", scratch, "--manifest", manifest]
    code, out = run_checked(cmd, RUN_TIMEOUT_S, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.exit(f"bench_e2e: benchmark exited with code {code}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
