"""E-scale: million-client scale-out of one Storage Tank shard map.

The paper argues the lease protocol's server cost is independent of the
client population: the server is passive, so sleeping clients cost it
nothing (§3), and an idle client's own footprint is one renewal timer.
This experiment measures the simulator's realization of that claim with
flyweight client records (:class:`repro.client.pool.ClientPool`, every
client built on first touch) and pooled lease lapses
(:class:`repro.lease.pooled.PooledLeaseService`):

* build ``N`` clients lazily for ``N`` in 1k → 1M and record traced
  bytes per client, their traced high-water through seeding and the
  active-set draw, and the kernel-heap population after build (which
  must stay O(active), not O(N));
* seed every parked client with a pooled lease expiry in one call, so
  the whole population's lapses share one armed kernel timeout;
* wake a small Zipf-selected active set, drive the standard workload
  against the shard map, and report server transactions per second,
  kernel events per wall second, and parked-lease expiries swept.

Run it with ``python -m repro.harness e-scale`` (100k default; pass
``--clients 1000000`` for the full sweep; ``heavy`` keeps it out of ``all``).
EXPERIMENTS.md records representative output.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from repro.analysis.report import Table
from repro.core.config import SystemConfig, WorkloadConfig
from repro.core.system import StorageTankSystem, build_system
from repro.harness.common import wall_timer
from repro.harness.registry import experiment
from repro.sim.events import Event
from repro.workloads.generator import WorkloadDriver, populate_files
from repro.workloads.zipf import ZipfSampler

#: Sweep points; a run stops at its ``clients`` cap.
SWEEP_POINTS: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)

#: Lease expiries are quantized to this bucket (global seconds) so the
#: pooled sweep drains parked clients in batches, one kernel timeout
#: per occupied bucket rather than one per client.
EXPIRY_BUCKET = 0.1


def scale_point(n_clients: int, seed: int = 0, active: int = 48,
                duration: float = 30.0, zipf_s: float = 1.1,
                ) -> Dict[str, float]:
    """Build and run one sweep point; return its raw measurements.

    Shared by the E-scale table, ``benchmarks/perf_smoke.py`` and
    ``benchmarks/scale_smoke.py`` so they all measure the same thing.
    """
    build_wall = wall_timer()
    tracemalloc.start()
    system = _build(n_clients, seed)
    _seed_parked_leases(system, duration)
    traced_bytes, _peak = tracemalloc.get_traced_memory()
    build_s = build_wall()
    kernel_after_build = system.sim.pending_events

    names = _zipf_active_set(system, min(active, n_clients), zipf_s)
    _traced, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stats = _drive(system, names, duration)
    stats.update({
        "clients": float(n_clients),
        "bytes_per_client": traced_bytes / n_clients,
        "peak_bytes_per_client": peak_bytes / n_clients,
        "kernel_after_build": float(kernel_after_build),
        "build_s": build_s,
        "live": float(system.pool.live_count),
        "parked_expiries": float(system.pooled_leases.expired),
    })
    return stats


@experiment("e-scale", heavy=True,
            summary="million-client scale-out: flyweight records, pooled "
                    "timers, one shard map (use --clients to set the cap)")
def experiment_e_scale(seed: int = 0, clients: int = 100_000,
                       active: int = 48, duration: float = 30.0,
                       zipf_s: float = 1.1) -> Table:
    """Sweep the client population 1k → ``clients`` against one shard map.

    Each point builds the population lazily, seeds everyone with a
    pooled lease, wakes a Zipf-selected active set and drives the
    standard workload; the table shows that per-client memory and the
    kernel heap stay flat while only the active set does work.
    """
    counts: List[int] = [n for n in SWEEP_POINTS if n <= clients]
    if clients not in counts:
        counts.append(clients)
    table = Table(
        "E-scale  Client scale-out on one shard map (§3: passive server)",
        ["clients", "live", "B/client", "peak B/client", "kheap@build",
         "parked_expired", "srv_txn/s", "events/wall_s", "build_s",
         "run_wall_s"])
    for n in counts:
        p = scale_point(n, seed=seed, active=active, duration=duration,
                        zipf_s=zipf_s)
        table.add_row(n, int(p["live"]), round(p["bytes_per_client"], 1),
                      round(p["peak_bytes_per_client"], 1),
                      int(p["kernel_after_build"]),
                      int(p["parked_expiries"]),
                      round(p["txn_per_sim_s"], 2),
                      int(p["events_per_wall_s"]),
                      round(p["build_s"], 2), round(p["run_wall_s"], 2))
    table.note("kheap@build is the kernel-heap population after building "
               "N clients: O(servers + pools), not O(N).  Parked clients "
               "share one pooled kernel timeout; only the Zipf-selected "
               "active set materializes and does work.")
    table.note("B/client is tracemalloc-traced bytes over the whole build "
               "(system + pooled lease state) divided by N; peak B/client "
               "is the traced high-water of build, seeding and the "
               "active-set draw over N.  Every full-population array is "
               "built in place, so seeding peaks at the expiry draw, the "
               "sort order and the held flags, and the draw at the kept "
               "columns plus one Zipf CDF.")
    return table


def _build(n_clients: int, seed: int) -> StorageTankSystem:
    """One system of N flyweight clients on one shard map; the drive
    flushes explicitly, so clients run no write-back daemon."""
    cfg = SystemConfig(
        n_clients=n_clients, seed=seed, protocol="storage_tank",
        writeback_interval=0.0,
        workload=WorkloadConfig(n_files=20, zipf_s=0.0))
    return build_system(cfg)


def _seed_parked_leases(system: StorageTankSystem, duration: float) -> None:
    """Give every parked client a pooled lease expiry inside the run.

    Expiries are drawn uniformly over the middle of the run and
    quantized to :data:`EXPIRY_BUCKET` so the pooled sweep fires once
    per occupied bucket.
    """
    pooled = system.pooled_leases
    n = len(system.pool)
    rng = system.streams.get("scale.leases")
    base = system.sim.now
    # ``base + ceil(raw / bucket) * bucket``, one IEEE step at a time in
    # the draw's own buffer: no full-size temporary per step.
    expiries = rng.uniform(0.2 * duration, 0.8 * duration, size=n)
    np.divide(expiries, EXPIRY_BUCKET, out=expiries)
    np.ceil(expiries, out=expiries)
    np.multiply(expiries, EXPIRY_BUCKET, out=expiries)
    np.add(base, expiries, out=expiries)
    pooled.seed(expiries)


def _zipf_active_set(system: StorageTankSystem, active: int,
                     zipf_s: float) -> List[str]:
    """Zipf-select ``active`` distinct client names from the population.

    The skew models a large install where a small hot set of clients
    does nearly all the work while the rest sleep.
    """
    n = len(system.pool)
    sampler = ZipfSampler(n, zipf_s, system.streams.get("scale.zipf"))
    chosen: List[int] = []
    seen = set()
    for rank in sampler.sample_many(max(20 * active, 64)):
        if int(rank) not in seen:
            seen.add(int(rank))
            chosen.append(int(rank))
            if len(chosen) == active:
                break
    for idx in range(n):           # top up if the skew collapsed the draw
        if len(chosen) == active:
            break
        if idx not in seen:
            seen.add(idx)
            chosen.append(idx)
    return [system.pool.name_of(i) for i in chosen]


def _drive(system: StorageTankSystem, names: List[str],
           duration: float) -> Dict[str, float]:
    """Materialize the active set, run the workload, return throughput."""
    sim = system.sim
    system.client(names[0])    # materialize the client that populates

    created: Dict[str, Any] = {}

    def bootstrap() -> Generator[Event, Any, None]:
        created["paths"] = yield from populate_files(system)

    boot = system.spawn(bootstrap(), "populate")
    sim.run_until_event(boot, hard_limit=sim.now + 600)
    paths = created["paths"]

    drivers = [WorkloadDriver(system, name, paths) for name in names]
    run_wall = wall_timer()
    t0 = sim.now
    ev0 = sim.events_scheduled
    txn0 = system.server.transactions
    for d in drivers:
        system.spawn(d.run(duration), f"wl:{d.client.name}")
    sim.run(until=t0 + duration)
    wall_s = max(run_wall(), 1e-9)
    events = sim.events_scheduled - ev0
    ops = sum(d.stats.ops_succeeded for d in drivers)
    return {
        "txn_per_sim_s": (system.server.transactions - txn0) / duration,
        "events_per_wall_s": events / wall_s,
        "events": float(events),
        "ops_succeeded": float(ops),
        "run_wall_s": wall_s,
        "kernel_after_run": float(sim.pending_events),
    }
