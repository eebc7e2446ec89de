#!/usr/bin/env python3
"""Repository benchmark: builds pi_bench from the checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The c2pi library and the benchmark are
built from source into .bench_build/ (CMake, Release); the first run
builds, later runs only check that the build is current. The benchmark
prints its report and, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, and writes a Chrome trace to
.bench_build/traces/<workload>-seed<N>.json.

Exits non-zero without a result if the build or the run fails, or if the
metrics it printed are not the ones BENCHMARK.json names. Every C2PI_*
environment variable is removed before the run, so the library's own
defaults are what is measured.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps.append(["cmake", "--build", str(build_dir), "--target", "pi_bench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return build_dir / "pi_bench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if present."""
    spec = Path("BENCHMARK.json")
    if not spec.is_file():
        return None
    listed = json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (HERE.parent / "CMakeLists.txt").is_file() or not (HERE.parent / "src").is_dir():
        fail("no c2pi sources next to perfbench/; run from a checkout of the repository")
    env = {k: v for k, v in os.environ.items() if not k.startswith("C2PI_")}
    # Keep the compiler's temporary files inside the checkout too.
    tmp = Path(".bench_build") / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp.resolve())
    build_dir = Path(".bench_build") / "perfbench"
    binary = build(build_dir, env)
    traces = Path(".bench_build") / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"pi_bench exited with code {done.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("pi_bench did not end with a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys")
    want = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, or a unit differs")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
