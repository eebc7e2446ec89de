#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh google-benchmark JSON against the
committed baseline (bench/baseline/BENCH_micro.json).

The baseline and the fresh run rarely execute on identical hardware (a
dev box vs a CI runner), so raw ratios mostly measure the machine, not
the code: on a runner 3x faster than the baseline box every bench looks
"improved" and a real regression hides inside the speedup. The gate
therefore normalizes by the MEDIAN ratio across all shared benches —
the whole-suite machine factor — and thresholds each bench's deviation
from that median. A hot loop that got slower *relative to the rest of
the suite* trips the gate on any machine.

Per normalized bench: a slowdown above --warn (default 10%) prints a
warning; a slowdown above --fail (default 30%) on one of the
SERVER-ONLINE HOT-LOOP benches (the per-request serving cost the whole
compile-once design optimizes for: names containing 'ServerOnline')
fails the gate with a nonzero exit, as does one on the FSS key-dealing
bench ('FssDeal', the server's per-session preprocessing). Cold paths
only ever warn — CI runners are noisy, and the gate should catch real
hot-loop regressions, not scheduler jitter on a 2 us NTT.

A bench present in the baseline but MISSING from the fresh run is a
hard failure regardless of hot/cold: silently dropping a deleted bench
is how a removed hot-loop measurement (and whatever regression it was
guarding) escapes the gate. Deleting a bench on purpose means
refreshing the baseline in the same change.

Caveat (by construction): a change that slows EVERY bench uniformly is
indistinguishable from a slower machine and will not trip the gate; the
printed machine factor is the place to notice it.

Usage:
    scripts/bench_diff.py BASELINE.json FRESH.json [--warn 0.10] [--fail 0.30]

To refresh the baseline after an intentional perf change:
    C2PI_FAST=1 C2PI_BENCH_JSON=bench/baseline/BENCH_micro.json \\
        ./build/bench/micro_primitives
"""

import argparse
import json
import statistics
import sys

# Substrings naming the benches the gate may FAIL on (everything else is
# warn-only). These are the per-request serving hot loops: the HE
# server-online loops and the FSS dealing every kFss session runs.
HOT_LOOP_MARKERS = ("ServerOnline", "FssDeal")

# real_time normalization to nanoseconds.
TIME_UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    """name -> real_time in ns. Aggregate entries (mean/median/stddev)
    are skipped; C2PI_FAST runs emit one plain entry per bench."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    result = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        unit = bench.get("time_unit", "ns")
        if unit not in TIME_UNITS:
            raise SystemExit(f"{path}: unknown time_unit '{unit}' in {bench.get('name')}")
        result[bench["name"]] = float(bench["real_time"]) * TIME_UNITS[unit]
    if not result:
        raise SystemExit(f"{path}: no benchmark entries")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--warn", type=float, default=0.10,
                        help="warn above this machine-normalized slowdown (default 0.10)")
    parser.add_argument("--fail", type=float, default=0.30,
                        help="fail hot-loop benches above this machine-normalized "
                             "slowdown (default 0.30)")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    fresh = load_benchmarks(args.fresh)

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        raise SystemExit("no benchmarks shared between baseline and fresh run")
    machine_factor = statistics.median(fresh[name] / baseline[name] for name in shared)
    print(f"machine factor (median fresh/baseline ratio over {len(shared)} benches): "
          f"{machine_factor:.3f}")
    if abs(machine_factor - 1.0) > 0.5:
        print("NOTE: baseline and fresh run differ a lot across the whole suite — "
              "different machine, build type, or a global shift; deltas below are "
              "relative to that factor", file=sys.stderr)

    failures, warnings, improvements = [], [], []
    width = max(len(name) for name in sorted(set(baseline) | set(fresh)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  {'delta':>8}")
    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            # Hard failure, not a warning: a bench that silently vanishes
            # from the run is exactly how a deleted hot-loop bench (and the
            # regression it would have caught) escapes the gate. Removing a
            # bench on purpose means removing it from the baseline too.
            failures.append(f"{name}: present in baseline but missing from fresh run "
                            "(deleted bench? refresh the baseline to drop it)")
            print(f"{name:<{width}}  {baseline[name]:>10.0f}ns  {'gone':>12}  "
                  f"{'--':>8}  FAIL")
            continue
        if name not in baseline:
            print(f"{name:<{width}}  {'new':>12}  {fresh[name]:>10.0f}ns  {'--':>8}")
            continue
        delta = fresh[name] / baseline[name] / machine_factor - 1.0
        hot = any(marker in name for marker in HOT_LOOP_MARKERS)
        flag = ""
        if hot and delta > args.fail:
            failures.append(f"{name}: {delta:+.1%} (hot loop, fail threshold {args.fail:.0%})")
            flag = "  FAIL"
        elif delta > args.warn:
            warnings.append(f"{name}: {delta:+.1%} (warn threshold {args.warn:.0%})")
            flag = "  WARN"
        elif delta < -args.fail:
            improvements.append(f"{name}: {delta:+.1%}")
            flag = "  IMPROVED"
        print(f"{name:<{width}}  {baseline[name]:>10.0f}ns  {fresh[name]:>10.0f}ns  "
              f"{delta:>+7.1%}{flag}")

    if improvements:
        # Large machine-normalized speedups are great news but also stale
        # baselines: until the baseline is refreshed the gate's median is
        # skewed and a later regression back to the OLD numbers would pass
        # silently. Nudge toward landing the win in the baseline (protocol
        # in docs/API.md and --help above).
        print(f"NOTE: {len(improvements)} bench(es) improved by more than "
              f"{args.fail:.0%} machine-normalized — if intentional, refresh "
              "bench/baseline/BENCH_micro.json so the new numbers become the "
              "floor (see --help)", file=sys.stderr)
    for message in warnings:
        print(f"WARNING: {message}", file=sys.stderr)
    for message in failures:
        print(f"FAILURE: {message}", file=sys.stderr)
    if failures:
        print("perf gate: FAILED — a serving hot loop regressed relative to "
              "the rest of the suite, or a baselined bench is missing from the "
              "run; if the change is intentional, refresh "
              "bench/baseline/BENCH_micro.json (see --help)", file=sys.stderr)
        return 1
    print(f"perf gate: OK ({len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
