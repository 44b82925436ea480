"""CI scale smoke: E-scale at 10k clients under wall and memory bounds.

Runs one E-scale sweep point (10k flyweight clients, 48 active, one
shard map) and enforces the scale-out invariants that matter for the
million-client path:

* the whole point — lazy build, parked-lease seeding, workload, pooled
  expiry sweep — completes inside a wall-clock bound;
* peak RSS stays bounded (the population must not cost full client
  objects);
* the kernel heap after build is O(pools), not O(clients);
* nearly the whole parked population's leases lapse through the pooled
  sweep (coalesced timers actually fired).

Exit codes: 0 all bounds hold, 1 a bound was violated.  Like the other
files under ``benchmarks/`` this measures the host by design, so it
lives outside the simulated-time lint scope.

Usage::

    python benchmarks/scale_smoke.py            # CI gate (10k)
    python benchmarks/scale_smoke.py --clients 100000
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

sys.path.insert(0, "src")  # runnable from the repo root without PYTHONPATH

from repro.harness.scale import scale_point  # noqa: E402

#: Wall-clock bound for the whole sweep point (generous: ~0.4s locally).
WALL_BOUND_S = 30.0
#: Peak-RSS bound; the interpreter + numpy alone are ~100 MB.
RSS_BOUND_MB = 1024.0
#: Kernel-heap population allowed right after the lazy build (1 locally:
#: the one pooled timeout the bulk lease seeding arms).
KERNEL_HEAP_BOUND = 8
#: Traced bytes per client allowed at 10k (~170 locally: ~60 for the
#: five counter columns, expiry, held flag and bucket slot, the rest is
#: this fresh process's first-call imports amortized over 10k).
BYTES_PER_CLIENT_BOUND = 256.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/scale_smoke.py",
        description="Run one E-scale point under wall/RSS/heap bounds.")
    parser.add_argument("--clients", type=int, default=10_000,
                        help="population for the sweep point (default 10k)")
    parser.add_argument("--wall-bound", type=float, default=WALL_BOUND_S,
                        help=f"wall-clock bound in seconds "
                             f"(default {WALL_BOUND_S})")
    parser.add_argument("--rss-bound", type=float, default=RSS_BOUND_MB,
                        help=f"peak-RSS bound in MB (default {RSS_BOUND_MB})")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    point = scale_point(args.clients, duration=30.0)
    wall = time.perf_counter() - t0
    # ru_maxrss is KB on Linux, bytes on macOS.
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mb = raw / 1024.0 if sys.platform != "darwin" else raw / (1024.0 ** 2)

    checks = [
        ("wall_s", wall, wall <= args.wall_bound,
         f"<= {args.wall_bound}"),
        ("peak_rss_mb", rss_mb, rss_mb <= args.rss_bound,
         f"<= {args.rss_bound}"),
        ("kernel_after_build", point["kernel_after_build"],
         point["kernel_after_build"] <= KERNEL_HEAP_BOUND,
         f"<= {KERNEL_HEAP_BOUND}"),
        ("bytes_per_client", point["bytes_per_client"],
         point["bytes_per_client"] <= BYTES_PER_CLIENT_BOUND,
         f"<= {BYTES_PER_CLIENT_BOUND}"),
        ("parked_expiries", point["parked_expiries"],
         point["parked_expiries"] >= 0.9 * args.clients,
         f">= {0.9 * args.clients:.0f}"),
        ("srv_txn_per_s", point["txn_per_sim_s"],
         point["txn_per_sim_s"] > 0, "> 0"),
    ]
    failures = 0
    for name, value, ok, bound in checks:
        status = "ok" if ok else "VIOLATION"
        if not ok:
            failures += 1
        print(f"  {name}: {value:,.2f} (bound {bound}) {status}")
    print(f"scale-smoke: {len(checks) - failures}/{len(checks)} bounds hold "
          f"at {args.clients:,} clients")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
