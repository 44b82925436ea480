"""CI netcache smoke: the E-cache point at 10k clients, safety-audited.

Runs one E-cache sweep point (10k flyweight clients, 48 active, 4 cache
nodes, Zipf s=1.2) and enforces the two properties the cache tier must
never lose:

* the tier *works* — the aggregate hit rate clears the acceptance floor
  (the point is deterministic, so the measured 66% has no noise band to
  leave), the cache actually absorbs server transactions, and a
  mutation invalidates fewer than two of the four nodes on average
  (only the nodes that may hold one of its keys);
* the tier is *safe* — replaying the run's trace through
  :class:`~repro.simtest.oracles.CacheNoStaleEntryOracle` finds zero
  hits whose served value disagrees with the authoritative namespace at
  serve time.

Exit codes: 0 all bounds hold, 1 a bound was violated.  Like the other
files under ``benchmarks/`` this measures the host by design, so it
lives outside the simulated-time lint scope.

Usage::

    python benchmarks/netcache_smoke.py            # CI gate (10k)
    python benchmarks/netcache_smoke.py --clients 100000
"""

from __future__ import annotations

import argparse
import sys
import time

sys.path.insert(0, "src")  # runnable from the repo root without PYTHONPATH

from repro.harness.cache import cache_point  # noqa: E402
from repro.simtest.oracles import CacheNoStaleEntryOracle  # noqa: E402

#: Wall-clock bound for the whole point (generous: ~10s locally).
WALL_BOUND_S = 300.0
#: Aggregate hit-rate floor at Zipf s=1.2 with 4 cache nodes — the
#: ISSUE acceptance criterion (> 0.5); the deterministic run lands ~0.66.
HIT_RATE_FLOOR = 0.5
#: Invalidation receipts per applied mutation (``meta.mutate``) with 4
#: cache nodes.  A barrier that invalidates every node reads one per
#: node, 4.0; the holder rule sends a mutation only to the nodes that
#: may hold one of its keys.
INVALIDATIONS_PER_MUTATION_BOUND = 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/netcache_smoke.py",
        description="Run one E-cache point and audit its trace for "
                    "stale cache hits.")
    parser.add_argument("--clients", type=int, default=10_000,
                        help="population for the sweep point (default 10k)")
    parser.add_argument("--cache-nodes", type=int, default=4,
                        help="cache nodes to interpose (default 4)")
    parser.add_argument("--zipf", type=float, default=1.2,
                        help="workload skew (default 1.2)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="simulated seconds of workload (default 20)")
    parser.add_argument("--wall-bound", type=float, default=WALL_BOUND_S,
                        help=f"wall-clock bound in seconds "
                             f"(default {WALL_BOUND_S})")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    point = cache_point(args.clients, args.cache_nodes, args.zipf,
                        duration=args.duration)
    system = point["_system"]
    stale = CacheNoStaleEntryOracle().check_final(system)
    wall = time.perf_counter() - t0
    mutations = system.trace.count("meta.mutate")
    per_mutation = point["invalidations"] / mutations if mutations else 0.0

    checks = [
        ("wall_s", wall, wall <= args.wall_bound,
         f"<= {args.wall_bound}"),
        ("hit_rate", point["hit_rate"],
         point["hit_rate"] > HIT_RATE_FLOOR, f"> {HIT_RATE_FLOOR}"),
        ("hits", point["hits"], point["hits"] > 0, "> 0"),
        ("installs", point["installs"], point["installs"] > 0, "> 0"),
        ("invalidations", point["invalidations"],
         point["invalidations"] > 0, "> 0"),
        ("invalidations_per_mutation", per_mutation,
         per_mutation < INVALIDATIONS_PER_MUTATION_BOUND,
         f"< {INVALIDATIONS_PER_MUTATION_BOUND}"),
        ("srv_txn_per_s", point["txn_per_sim_s"],
         point["txn_per_sim_s"] > 0, "> 0"),
        ("stale_hits", float(len(stale)), not stale, "== 0"),
    ]
    failures = 0
    for name, value, ok, bound in checks:
        status = "ok" if ok else "VIOLATION"
        if not ok:
            failures += 1
        print(f"  {name}: {value:,.2f} (bound {bound}) {status}")
    for violation in stale:
        print(f"  stale hit @ {violation.time:.4f} {violation.node}: "
              f"{violation.message}")
    print(f"netcache-smoke: {len(checks) - failures}/{len(checks)} bounds "
          f"hold at {args.clients:,} clients, "
          f"{args.cache_nodes} cache nodes, zipf {args.zipf}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
