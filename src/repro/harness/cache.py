"""E-cache: in-network metadata cache offload at scale.

Storage Tank's metadata server answers every lookup/getattr/readdir
itself; the control network between clients and server is where a
NAS-style install would drop per-rack middleboxes.  The
:mod:`repro.netcache` tier models exactly that, with entry lifetimes
scoped to the cache node's own lease on the server, so the question
this experiment answers is the paper-adjacent one: *how much server
transaction load can lease-coherent soft state absorb, and at what
skew does it stop paying?*

The sweep drives a light metadata-read workload (no data I/O, no lock
traffic — the reads the cache tier can legally serve) from a
Zipf-selected active set of a large lazy client population, for each
(Zipf skew × cache-node count) point, and reports the aggregate cache
hit rate and the server transactions per second relative to the
no-cache baseline of the same skew.

Run it with ``python -m repro.harness e-cache`` (10k clients default).
EXPERIMENTS.md records representative output.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.analysis.report import Table
from repro.core.config import NetCacheConfig, SystemConfig, WorkloadConfig
from repro.core.system import StorageTankSystem, build_system
from repro.harness.common import wall_timer
from repro.harness.registry import experiment
from repro.net.message import DeliveryError, NackError
from repro.sim.events import Event
from repro.workloads.generator import populate_files
from repro.workloads.zipf import ZipfSampler

#: (zipf skew, cache-node counts) grid the experiment table sweeps.
SKEW_POINTS: Tuple[float, ...] = (0.8, 1.2)
CACHE_POINTS: Tuple[int, ...] = (0, 1, 4)


class MetaReadDriver:
    """One metadata-only application process on one client.

    Lookup / getattr-by-path / readdir over Zipf-ranked paths, with a
    small fraction of create+unlink churn so the invalidation barrier
    carries real traffic.  Deliberately lock- and data-free: these are
    the RPCs the cache tier may serve, so the measured offload is not
    diluted by traffic that must reach the server anyway.
    """

    def __init__(self, system: StorageTankSystem, client_name: str,
                 paths: List[str], zipf_s: float,
                 think_time: float = 0.05,
                 mutate_fraction: float = 0.05) -> None:
        self.system = system
        self.client = system.client(client_name)
        self.paths = paths
        self.think_time = think_time
        self.mutate_fraction = mutate_fraction
        self.rng = system.streams.get(f"ecache.{client_name}")
        self.zipf = ZipfSampler(len(paths), zipf_s, self.rng)
        self.ops = 0
        self.errors = 0
        self._scratch_seq = 0

    def run(self, duration: float) -> Generator[Event, Any, None]:
        """Issue metadata ops with exponential think time until the
        deadline."""
        sim = self.system.sim
        deadline = sim.now + duration
        while sim.now < deadline:
            think = float(self.rng.exponential(self.think_time))
            yield sim.timeout(min(think, max(deadline - sim.now, 1e-6)))
            if sim.now >= deadline:
                break
            yield from self._one_op()

    def _one_op(self) -> Generator[Event, Any, None]:
        path = self.paths[self.zipf.sample()]
        try:
            if (self.mutate_fraction > 0.0
                    and self.rng.random() < self.mutate_fraction):
                self._scratch_seq += 1
                scratch = (f"{path}.{self.client.name}"
                           f".s{self._scratch_seq:04d}")
                yield from self.client.create(scratch, size=0)
                yield from self.client.unlink(scratch)
            else:
                kind = int(self.rng.integers(0, 3))
                if kind == 0:
                    yield from self.client.lookup(path)
                elif kind == 1:
                    yield from self.client.getattr(path)
                else:
                    yield from self.client.readdir(
                        path.rsplit("/", 1)[0] or "/")
            self.ops += 1
        except (DeliveryError, NackError):
            self.errors += 1


def cache_point(n_clients: int, cache_nodes: int, zipf_s: float,
                seed: int = 0, active: int = 48, duration: float = 30.0,
                n_files: int = 64) -> Dict[str, float]:
    """Build and run one (population, cache count, skew) point.

    Shared by the E-cache table and ``benchmarks/netcache_smoke.py`` so
    the CI gate measures the same thing the experiment reports.
    """
    cfg = SystemConfig(
        n_clients=n_clients, seed=seed, protocol="storage_tank",
        writeback_interval=0.0,
        workload=WorkloadConfig(n_files=n_files, zipf_s=0.0),
        netcache=NetCacheConfig(n_nodes=cache_nodes))
    system = build_system(cfg)
    sim = system.sim
    system.client(system.pool.name_of(0))  # materialize the populator

    created: Dict[str, Any] = {}

    def bootstrap() -> Generator[Event, Any, None]:
        created["paths"] = yield from populate_files(system)

    boot = system.spawn(bootstrap(), "populate")
    sim.run_until_event(boot, hard_limit=sim.now + 600)
    paths = created["paths"]

    names = [system.pool.name_of(i) for i in range(min(active, n_clients))]
    drivers = [MetaReadDriver(system, name, paths, zipf_s)
               for name in names]
    run_wall = wall_timer()
    t0 = sim.now
    txn0 = system.server.transactions
    for d in drivers:
        system.spawn(d.run(duration), f"ecache:{d.client.name}")
    sim.run(until=t0 + duration)

    hits = sum(c.hits for c in system.netcache.values())
    misses = sum(c.misses for c in system.netcache.values())
    lookups = hits + misses
    return {
        "clients": float(n_clients),
        "cache_nodes": float(cache_nodes),
        "zipf_s": zipf_s,
        "ops": float(sum(d.ops for d in drivers)),
        "errors": float(sum(d.errors for d in drivers)),
        "txn_per_sim_s": (system.server.transactions - txn0) / duration,
        "hits": float(hits),
        "misses": float(misses),
        "hit_rate": (hits / lookups) if lookups else 0.0,
        "installs": float(sum(c.installs for c in system.netcache.values())),
        "invalidations": float(sum(c.invalidations
                                   for c in system.netcache.values())),
        "entries_dropped": float(sum(c.entries_dropped
                                     for c in system.netcache.values())),
        "run_wall_s": max(run_wall(), 1e-9),
        "_system": system,  # the smoke gate audits its trace
    }


@experiment("e-cache", heavy=True,
            summary="in-network metadata cache offload: Zipf skew x "
                    "cache-node count at 10k+ clients (use --clients)")
def experiment_e_cache(seed: int = 0, clients: int = 10_000,
                       active: int = 48,
                       duration: float = 30.0) -> Table:
    """Sweep Zipf skew and cache-node count; report hit rate and server
    transaction offload against the no-cache baseline of the same skew.
    """
    table = Table(
        "E-cache  Lease-coherent metadata cache tier "
        "(lookup/getattr/readdir offload)",
        ["clients", "zipf_s", "caches", "ops", "hit%", "srv_txn/s",
         "offload%", "installs", "invals", "run_wall_s"])
    for zipf_s in SKEW_POINTS:
        baseline: float = 0.0
        for cache_nodes in CACHE_POINTS:
            p = cache_point(clients, cache_nodes, zipf_s, seed=seed,
                            active=active, duration=duration)
            if cache_nodes == 0:
                baseline = p["txn_per_sim_s"]
            offload = (100.0 * (1.0 - p["txn_per_sim_s"] / baseline)
                       if baseline > 0 else 0.0)
            table.add_row(clients, zipf_s, cache_nodes, int(p["ops"]),
                          round(100.0 * p["hit_rate"], 1),
                          round(p["txn_per_sim_s"], 1),
                          round(offload, 1),
                          int(p["installs"]), int(p["invalidations"]),
                          round(p["run_wall_s"], 2))
    table.note("offload% compares server txn/s against the caches=0 row "
               "of the same skew; the residual server load is misses, "
               "create/unlink churn and the invalidation barrier itself.")
    table.note("Entries are lease-scoped soft state: every hit is served "
               "under a live cache-node lease and the server invalidates "
               "before applying any metadata mutation, so a cache node "
               "crash degrades to forwarding, never to a stale answer.")
    return table
