"""Perf-regression smoke harness: write or check ``BENCH_perf.json``.

Raw ops/sec is meaningless across machines, so every number is
*machine-normalized*: a fixed pure-Python calibration workload is timed
on the current host, and each benchmark's throughput is divided by the
host's calibration score.  Two hosts that differ only in CPU speed then
produce (approximately) the same normalized numbers, which is what the
CI ``perf-smoke`` job compares against the committed baseline with a
tolerance band.

Usage::

    python benchmarks/perf_smoke.py --write BENCH_perf.json   # re-baseline
    python benchmarks/perf_smoke.py --check BENCH_perf.json   # CI gate

Exit codes: 0 within tolerance, 1 regression detected, 2 usage errors.

This harness is wall-clock timing by nature (it measures the host), so
it lives in ``benchmarks/`` — outside the simulated-time lint scope —
and routes all timing through one local helper.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from typing import Callable, Dict, Tuple

sys.path.insert(0, "src")  # runnable from the repo root without PYTHONPATH

from bench_infrastructure import (  # noqa: E402
    _generator_handler, _parked_handler,
    _spin_batched_range_acquire, _spin_fuzz_step, _spin_intent_open,
    _spin_intent_open_long, _spin_metrics, _spin_netcache_lookup,
    _spin_page_cache_hit, _spin_pooled_seed_sweep, _spin_processes,
    _spin_rpcs, _spin_scale_registration, _spin_timeouts,
    _spin_trace_counting_only, _spin_trace_emits)
from lint_smoke import _spin_lint_cold, _spin_lint_warm  # noqa: E402

SCHEMA = "repro.bench-perf/1.0"

#: Pre-PR throughput (ops/sec, this container) measured at the commit
#: before the optimization that moved the row, recorded so the claimed
#: ratio stays auditable.  Normalization does not apply here: the
#: pre/post ratio was measured on one machine.
PRE_PR_OPS_PER_SEC = {
    "kernel_events": 20_000 / 0.04983,        # 49.83 ms / 20k cycles
    "kernel_concurrent_processes": 20_000 / 0.0693,  # 69.3 ms / 200x100
    "endpoint_rpc": 2_000 / 0.1298,           # 129.8 ms / 2k round-trips
    # PR 12: the same 200k slots seeded by a loop of renew() into the
    # tuple heap and swept by heappop, 443.1 ms.
    "pooled_seed_sweep": 200_000 / 0.4431,
    # PR 17: every open re-parsed all 512 extents, 392.6 ms / 500 cycles;
    # every hit was a list.remove over the 1,024 resident keys, 1.292 s.
    "page_cache_hit": 100_000 / 1.292,
    # PR 23: a generator handler was answered by receipt ACK + RESULT +
    # its ACK whether or not it waited (three processes when it did):
    # 125.0 ms and 129.0 ms / 2k round trips, 162.8 ms / 1k opens,
    # 122.3 ms / 500 long opens (392.6 ms before PR 17), 88.8 ms / 250
    # batched acquisitions.
    "endpoint_rpc_generator": 2_000 / 0.1250,
    "endpoint_rpc_parked": 2_000 / 0.1290,
    "intent_open": 1_000 / 0.1628,
    "intent_open_long": 500 / 0.1223,
    "batched_range_acquire": 250 / 0.0888,
}

#: (callable, units-per-call) — ops/sec = units / best wall time.
BENCHES: Dict[str, Tuple[Callable[[], object], int]] = {
    "kernel_events": (lambda: _spin_timeouts(20_000), 20_000),
    "kernel_concurrent_processes": (lambda: _spin_processes(200, 100), 20_000),
    "endpoint_rpc": (lambda: _spin_rpcs(2_000), 2_000),
    "endpoint_rpc_generator": (
        lambda: _spin_rpcs(2_000, _generator_handler), 2_000),
    "endpoint_rpc_parked": (
        lambda: _spin_rpcs(2_000, _parked_handler), 2_000),
    "trace_recorder": (lambda: _spin_trace_emits(50_000), 50_000),
    "trace_counting_only": (lambda: _spin_trace_counting_only(50_000), 50_000),
    "metrics_registry": (lambda: _spin_metrics(50_000), 50_000),
    "fuzz_step": (_spin_fuzz_step, 1),
    "scale_client_registration": (
        lambda: _spin_scale_registration(50_000), 50_000),
    "pooled_seed_sweep": (
        lambda: _spin_pooled_seed_sweep(200_000, 180), 200_000),
    "netcache_lookup_hit": (lambda: _spin_netcache_lookup(500, 0.0), 500),
    "netcache_lookup_miss": (lambda: _spin_netcache_lookup(500, 1e-4), 500),
    "lint_full_repo": (_spin_lint_cold, 1),
    "lint_full_repo_warm": (_spin_lint_warm, 1),
    "intent_open": (lambda: _spin_intent_open(1_000), 1_000),
    "intent_open_long": (lambda: _spin_intent_open_long(500), 500),
    "page_cache_hit": (lambda: _spin_page_cache_hit(100_000), 100_000),
    "batched_range_acquire": (
        lambda: _spin_batched_range_acquire(250), 250),
}


def _best_time(fn: Callable[[], object], reps: int) -> float:
    """Minimum wall time over ``reps`` runs (noise-resistant)."""
    timer = time.perf_counter
    best = float("inf")
    fn()  # warm-up: primes allocator arenas and caches
    was_enabled = gc.isenabled()
    gc.disable()  # keep collection pauses out of the timed window
    try:
        for _ in range(reps):
            t0 = timer()
            fn()
            elapsed = timer() - t0
            if elapsed < best:
                best = elapsed
            gc.collect()  # pay the collection cost between reps instead
    finally:
        if was_enabled:
            gc.enable()
    return best


def calibrate() -> float:
    """Calibration score: iterations/sec of a fixed pure-Python loop.

    The loop exercises attribute access, integer arithmetic and list
    append — the same primitive mix the simulator burns — so the score
    tracks interpreter speed on the hot-path instruction profile.
    """
    def workload() -> int:
        acc = 0
        out = []
        append = out.append
        for i in range(200_000):
            acc += i & 7
            if not i % 64:
                append(i)
        return acc + len(out)

    n = 200_000
    return n / _best_time(workload, reps=5)


def run_benches(reps: int = 5,
                only: Tuple[str, ...] = ()) -> Dict[str, Dict[str, float]]:
    """Measure every bench (or the ``only`` subset); returns raw and
    normalized throughput."""
    cal = calibrate()
    out: Dict[str, Dict[str, float]] = {
        "__calibration__": {"score_ops_per_sec": cal}}
    for name, (fn, units) in BENCHES.items():
        if only and name not in only:
            continue
        best = _best_time(fn, reps)
        ops = units / best
        out[name] = {
            "best_s": best,
            "ops_per_sec": ops,
            "normalized": ops / cal,
        }
    return out


def make_document(results: Dict[str, Dict[str, float]]) -> Dict[str, object]:
    """Assemble the committed baseline document."""
    speedups = {
        name: results[name]["ops_per_sec"] / pre
        for name, pre in PRE_PR_OPS_PER_SEC.items() if name in results}
    return {
        "schema": SCHEMA,
        "calibration_ops_per_sec": results["__calibration__"]["score_ops_per_sec"],
        "benches": {name: vals for name, vals in results.items()
                    if name != "__calibration__"},
        "pre_pr_ops_per_sec": PRE_PR_OPS_PER_SEC,
        "speedup_vs_pre_pr": speedups,
    }


def check(baseline_path: str, tolerance: float, reps: int,
          only: Tuple[str, ...] = ()) -> int:
    """Compare a fresh run's normalized numbers to the baseline."""
    with open(baseline_path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        print(f"error: {baseline_path} has schema {doc.get('schema')!r}, "
              f"expected {SCHEMA!r}", file=sys.stderr)
        return 2
    gated = {name: vals for name, vals in doc["benches"].items()
             if not only or name in only}
    if only:
        missing = set(only) - set(doc["benches"])
        if missing:
            print(f"error: --only names not in baseline: "
                  f"{', '.join(sorted(missing))}", file=sys.stderr)
            return 2
    results = run_benches(reps, only=only)
    failures = 0
    for name, committed in gated.items():
        fresh = results.get(name)
        if fresh is None:
            print(f"  {name}: MISSING from current bench set")
            failures += 1
            continue
        floor = committed["normalized"] * (1.0 - tolerance)
        status = "ok" if fresh["normalized"] >= floor else "REGRESSION"
        if status != "ok":
            failures += 1
        print(f"  {name}: normalized {fresh['normalized']:.4f} "
              f"(baseline {committed['normalized']:.4f}, "
              f"floor {floor:.4f}) {status}")
    print(f"perf-smoke: {len(gated) - failures}/"
          f"{len(gated)} within tolerance {tolerance:.0%}")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf_smoke.py",
        description="Write or check the machine-normalized perf baseline.")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="FILE",
                       help="measure and write a fresh baseline document")
    group.add_argument("--check", metavar="FILE",
                       help="measure and compare against a committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional drop in normalized "
                             "throughput before failing (default 0.5)")
    parser.add_argument("--reps", type=int, default=15,
                        help="repetitions per bench; best time wins "
                             "(default 15)")
    parser.add_argument("--only", nargs="+", default=(), metavar="NAME",
                        help="check only these benches against the "
                             "baseline (CI job scoping; --check only)")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")
    unknown = set(args.only) - set(BENCHES)
    if unknown:
        parser.error(f"--only names not in bench set: "
                     f"{', '.join(sorted(unknown))}")
    if args.only and not args.check:
        parser.error("--only requires --check (baselines are written "
                     "complete)")
    if args.check:
        return check(args.check, args.tolerance, args.reps,
                     only=tuple(args.only))
    results = run_benches(args.reps)
    doc = make_document(results)
    with open(args.write, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, vals in doc["benches"].items():
        extra = ""
        if name in doc["speedup_vs_pre_pr"]:
            extra = f"  ({doc['speedup_vs_pre_pr'][name]:.2f}x vs pre-PR)"
        print(f"  {name}: {vals['ops_per_sec']:,.0f} ops/s, "
              f"normalized {vals['normalized']:.4f}{extra}")
    print(f"baseline written to {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
