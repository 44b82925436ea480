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
    python benchmarks/perf_smoke.py --write BENCH_perf.json --only ROW
    python benchmarks/perf_smoke.py --check BENCH_perf.json   # CI gate

``--write FILE --only ROW`` (repeatable) times just those rows and a
fresh calibration and merges them into the existing document, each row
carrying the ``calibration_ops_per_sec`` it was divided by.  ``--check``
reads such a row's baseline as its ``ops_per_sec`` over that
calibration, any other row's as its stored ``normalized``.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, "src")  # runnable from the repo root without PYTHONPATH

from bench_infrastructure import (  # noqa: E402
    _generator_handler, _parked_handler, _parked_long_handler,
    _spin_batched_range_acquire, _spin_fuzz_step, _spin_intent_open,
    _spin_intent_open_long, _spin_lease_rpc, _spin_metrics,
    _spin_netcache_lookup,
    _resident_trace, _spin_page_cache_hit, _spin_pooled_seed_sweep,
    _spin_processes, _spin_rpcs, _spin_scale_registration, _spin_timeouts,
    _spin_trace_counting_only, _spin_trace_emits, _spin_trace_resident)
from lint_smoke import _spin_lint_cold  # noqa: E402

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
    # tuple heap and swept by heappop, 443.1 ms.  PR 45: renew_many ran
    # a stable argsort and an np.unique over arange(n), 33.38 ms (the
    # median-normalized of 7 runs alternating with the change's).
    "pooled_seed_sweep": 200_000 / 0.033383211004547775,
    # PR 17: every open re-parsed all 512 extents, 392.6 ms / 500 cycles;
    # every hit was a list.remove over the 1,024 resident keys, 1.292 s.
    "page_cache_hit": 100_000 / 1.292,
    # PR 23: a generator handler was answered by receipt ACK + RESULT +
    # its ACK whether or not it waited (three processes when it did):
    # 125.0 ms and 129.0 ms / 2k round trips, 162.8 ms / 1k opens,
    # 122.3 ms / 500 long opens (392.6 ms before PR 17), 88.8 ms / 250
    # batched acquisitions.
    "endpoint_rpc_generator": 2_000 / 0.1250,
    # A parked handler's outcome travelled as a server-initiated RESULT
    # after a receipt ACK (a retry of a long wait re-ACKed as now):
    # 107.6 ms / 2k round trips parked under the retry timeout, 88.5 ms
    # / 2k parked past it, 25.6 ms per 6-step fuzz schedule.
    "endpoint_rpc_parked": 2_000 / 0.1076,
    "endpoint_rpc_parked_long": 2_000 / 0.0885,
    "fuzz_step": 1 / 0.0256,
    "intent_open": 1_000 / 0.1628,
    "intent_open_long": 500 / 0.1223,
    "batched_range_acquire": 250 / 0.0888,
    # Before columnar trace storage, emit built one frozen-dataclass
    # TraceRecord per stored record, which the cyclic GC then re-walked
    # on every full collection: median of three alternating runs,
    # 200.8 ms / 50k fresh emits (GC off), 749.4 ms / 200k emits onto
    # 400k resident records (GC on).
    "trace_recorder": 50_000 / 0.2008,
    "trace_recorder_resident": 200_000 / 0.7494,
    # Every leased getattr scheduled 9 kernel events, 2 of them
    # datagrams: the reply's race hop, a lease-daemon kick, its AnyOf and
    # re-armed timer per ACK, and an unwaited drain event.  Median of 5
    # alternating fresh-process runs (best of 15 each): 156.9 ms / 2k.
    "lease_rpc": 2_000 / 0.1569,
}

#: Rows whose callable takes state built outside the timed window:
#: name -> untimed setup, called afresh before every timed call.
SETUPS: Dict[str, Callable[[], Any]] = {
    "trace_recorder_resident": lambda: _resident_trace(400_000),
}

#: (callable, units-per-call) — ops/sec = units / best wall time.
BENCHES: Dict[str, Tuple[Callable[..., object], int]] = {
    "kernel_events": (lambda: _spin_timeouts(20_000), 20_000),
    "kernel_concurrent_processes": (lambda: _spin_processes(200, 100), 20_000),
    "endpoint_rpc": (lambda: _spin_rpcs(2_000), 2_000),
    "endpoint_rpc_generator": (
        lambda: _spin_rpcs(2_000, _generator_handler), 2_000),
    "endpoint_rpc_parked": (
        lambda: _spin_rpcs(2_000, _parked_handler), 2_000),
    "endpoint_rpc_parked_long": (
        lambda: _spin_rpcs(2_000, _parked_long_handler), 2_000),
    "lease_rpc": (lambda: _spin_lease_rpc(2_000), 2_000),
    "trace_recorder": (lambda: _spin_trace_emits(50_000), 50_000),
    "trace_recorder_resident": (
        lambda trace: _spin_trace_resident(trace, 200_000), 200_000),
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
    "intent_open": (lambda: _spin_intent_open(1_000), 1_000),
    "intent_open_long": (lambda: _spin_intent_open_long(500), 500),
    "page_cache_hit": (lambda: _spin_page_cache_hit(100_000), 100_000),
    "batched_range_acquire": (
        lambda: _spin_batched_range_acquire(250), 250),
}


def _best_time(fn: Callable[..., object], reps: int,
               setup: Optional[Callable[[], Any]] = None) -> float:
    """Minimum wall time over ``reps`` runs (noise-resistant).

    With ``setup``, each run (the warm-up too) times ``fn(setup())``
    and leaves the ``setup()`` call out of the window.
    """
    def args() -> Tuple[Any, ...]:
        return () if setup is None else (setup(),)

    timer = time.perf_counter
    best = float("inf")
    fn(*args())  # warm-up: primes allocator arenas and caches
    was_enabled = gc.isenabled()
    gc.disable()  # keep collection pauses out of the timed window
    try:
        for _ in range(reps):
            fn_args = args()
            t0 = timer()
            fn(*fn_args)
            elapsed = timer() - t0
            del fn_args  # free this run's state before the next setup
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


def run_benches(reps: int = 5, only: Optional[List[str]] = None
                ) -> Dict[str, Dict[str, float]]:
    """Measure every bench (or the ``only`` ones); returns raw and
    normalized throughput."""
    cal = calibrate()
    out: Dict[str, Dict[str, float]] = {
        "__calibration__": {"score_ops_per_sec": cal}}
    for name, (fn, units) in BENCHES.items():
        if only is not None and name not in only:
            continue
        best = _best_time(fn, reps, SETUPS.get(name))
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


def merge_rows(doc: Dict[str, Any],
               results: Dict[str, Dict[str, float]]) -> Dict[str, Any]:
    """``doc`` with the measured rows replaced, each carrying the
    calibration it was divided by."""
    cal = results["__calibration__"]["score_ops_per_sec"]
    for name, vals in results.items():
        if name == "__calibration__":
            continue
        doc["benches"][name] = {**vals, "calibration_ops_per_sec": cal}
        pre = PRE_PR_OPS_PER_SEC.get(name)
        if pre is not None:
            doc["speedup_vs_pre_pr"][name] = vals["ops_per_sec"] / pre
    return doc


def baseline_normalized(row: Dict[str, float]) -> float:
    """A committed row's throughput over its own calibration, or its
    stored ``normalized`` when it carries none."""
    cal = row.get("calibration_ops_per_sec")
    return row["normalized"] if cal is None else row["ops_per_sec"] / cal


def check(baseline_path: str, tolerance: float, reps: int) -> int:
    """Compare a fresh run's normalized numbers to the baseline."""
    with open(baseline_path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        print(f"error: {baseline_path} has schema {doc.get('schema')!r}, "
              f"expected {SCHEMA!r}", file=sys.stderr)
        return 2
    gated = doc["benches"]
    results = run_benches(reps)
    failures = 0
    for name, committed in gated.items():
        fresh = results.get(name)
        if fresh is None:
            print(f"  {name}: MISSING from current bench set")
            failures += 1
            continue
        base = baseline_normalized(committed)
        floor = base * (1.0 - tolerance)
        status = "ok" if fresh["normalized"] >= floor else "REGRESSION"
        if status != "ok":
            failures += 1
        print(f"  {name}: normalized {fresh['normalized']:.4f} "
              f"(baseline {base:.4f}, floor {floor:.4f}) {status}")
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
    parser.add_argument("--only", action="append", metavar="ROW",
                        choices=sorted(BENCHES),
                        help="with --write: re-time just this row "
                             "(repeatable) and merge it into FILE")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")
    if args.check:
        if args.only:
            parser.error("--only goes with --write")
        return check(args.check, args.tolerance, args.reps)
    results = run_benches(args.reps, args.only)
    if args.only:
        with open(args.write) as fh:
            doc = merge_rows(json.load(fh), results)
    else:
        doc = make_document(results)
    with open(args.write, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, vals in doc["benches"].items():
        if args.only and name not in args.only:
            continue
        extra = ""
        if name in doc["speedup_vs_pre_pr"]:
            extra = f"  ({doc['speedup_vs_pre_pr'][name]:.2f}x vs pre-PR)"
        print(f"  {name}: {vals['ops_per_sec']:,.0f} ops/s, "
              f"normalized {vals['normalized']:.4f}{extra}")
    print(f"baseline written to {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
