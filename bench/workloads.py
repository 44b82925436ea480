"""The five benchmark workloads and the benchmark's own load generators.

Every workload does a *fixed amount of work* for a given ``scale`` (1.0 is
the size documented in README.md, chosen so one measured window takes about
ten wall seconds on the reference box): a faster program finishes sooner and
is never handed more work for it.  All load is closed-loop: a client issues
its next operation only after the previous one completed plus an exponential
think time drawn from ``system.streams.get("bench.<client>")``, so the
program sees nothing of the benchmark but its generated inputs.

A workload is used in three steps, each timed separately by ``run.py``:
``prepare()`` (set-up: build the installation, create the files),
``window()`` (the measured work, nothing else) and ``finish()`` (read the
counters, run the correctness audits).  ``finish()`` returns a
:class:`WindowResult`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.consistency import ConsistencyAuditor
from repro.core.config import (LeaseConfig, NetCacheConfig, ScaleConfig,
                               SystemConfig)
from repro.core.system import StorageTankSystem, build_system
from repro.harness.common import APP_ERRORS, wall_timer
from repro.harness.scale import scale_point
from repro.simtest.oracles import CacheNoStaleEntryOracle, default_oracles
from repro.simtest.runner import run_schedule
from repro.simtest.schedule import generate_schedule
from repro.storage.blockmap import BLOCK_SIZE
from repro.workloads.zipf import ZipfSampler

from shim import ConfigShim
from spec import SIM_OP_METRICS


#: Counters that read the wall clock or the allocator (not bit-stable).
HOST_COUNTERS = frozenset({"core.build_s", "client.pool.bytes_per_client"})


@dataclass
class WindowResult:
    """Everything one measured window produced, except its wall time."""

    attempted: int
    failed: int
    #: sim-kind end-to-end metrics: exact for a fixed seed (None where the
    #: metric is not defined on this workload).
    sim: Dict[str, Optional[float]]
    #: per-layer public counters, as deltas over the window.
    counters: Dict[str, float]
    #: correctness problems found by the audits (empty = correct).
    problems: List[str] = field(default_factory=list)
    #: extra facts recorded with the result (failing fuzz seeds, ...).
    notes: Dict[str, Any] = field(default_factory=dict)
    #: hash of every simulated quantity, taken before the audits add
    #: theirs: equal digests mean the simulated run was bit-identical.
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        blob = json.dumps([self.attempted, self.failed, self.sim,
                           {k: v for k, v in self.counters.items()
                            if k not in HOST_COUNTERS},
                           self.notes.get("sim_detail")], sort_keys=True)
        self.digest = hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# counters: one cumulative snapshot per system, reported as window deltas
# ---------------------------------------------------------------------------

def snapshot(system: StorageTankSystem) -> Dict[str, float]:
    """Cumulative public counters of one installation, by layer."""
    servers = list(system.servers.values())
    clients = [c for _, c in system.pool.live_items()]
    endpoints = [n.endpoint for n in (*clients, *servers,
                                      *system.netcache.values())]
    leases = [m for c in clients for m in getattr(c, "leases", {}).values()]
    caches = list(system.netcache.values())
    net, san = system.control_net, system.san
    return {
        "sim.events": system.sim.events_scheduled,
        "sim.timer_pool.kernel_arms":
            system.timers.kernel_arms if system.timers else 0,
        "sim.trace.records": len(system.trace),
        "net.control.datagrams": net.delivered_count,
        "net.control.dropped": net.dropped_count,
        "net.control.bytes": net.bytes_delivered,
        "net.control.rpcs": sum(sum(e.rpc_sent.values()) for e in endpoints),
        "net.san.ios": san.io_count,
        "net.san.bytes_read": san.bytes_read,
        "net.san.bytes_written": san.bytes_written,
        "net.san.queue_wait_sim_s": san.queue_wait_total,
        "client.cache_hits": sum(c.cache.stats.hits for c in clients),
        "client.cache_misses": sum(c.cache.stats.misses for c in clients),
        "client.ops_completed": sum(c.ops_completed for c in clients),
        "client.app_errors": sum(c.app_errors for c in clients),
        "client.keepalives": sum(c.keepalives_sent for c in clients),
        "client.ops_rejected": sum(c.ops_rejected for c in clients),
        "client.pool.materializations": system.pool.materializations,
        "lease.renewals": sum(m.renewals for m in leases),
        "lease.expirations": sum(m.expirations for m in leases),
        "lease.pooled_expired":
            system.pooled_leases.expired if system.pooled_leases else 0,
        "locks.grants": sum(s.locks.grants for s in servers),
        "locks.steals": sum(s.locks.steals for s in servers),
        "locks.range_grants": sum(s.range_locks.grants_made for s in servers),
        "metadata.ops": sum(s.metadata.ops for s in servers),
        "server.transactions": sum(s.transactions for s in servers),
        "server.intent_ops": sum(s.intent_ops for s in servers),
        "server.rejected_releases":
            sum(s.rejected_releases for s in servers),
        "netcache.hits": sum(c.hits for c in caches),
        "netcache.misses": sum(c.misses for c in caches),
        "netcache.installs": sum(c.installs for c in caches),
        "netcache.invalidations": sum(c.invalidations for c in caches),
        "netcache.entries_dropped": sum(c.entries_dropped for c in caches),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def finish_counters(raw: Dict[str, float], work: int) -> Dict[str, float]:
    """Turn summed raw deltas into the reported per-layer counters."""
    out = dict(raw)
    out["sim.events_per_work"] = _ratio(raw.get("sim.events", 0), work)
    out["sim.trace.records_per_work"] = _ratio(
        raw.get("sim.trace.records", 0), work)
    out["net.control.rpcs_per_work"] = _ratio(
        raw.get("net.control.rpcs", 0), work)
    hits, misses = out.pop("client.cache_hits", 0), out.pop(
        "client.cache_misses", 0)
    out["client.cache_hit_ratio"] = _ratio(hits, hits + misses)
    hits, misses = out.pop("netcache.hits", 0), out.pop("netcache.misses", 0)
    out["netcache.hit_ratio"] = _ratio(hits, hits + misses)
    done = out.pop("client.ops_completed", 0)
    bad = out.pop("client.app_errors", 0) + out.get("client.ops_rejected", 0)
    out["simtest.client_op_fail_ratio"] = _ratio(bad, done + bad)
    return out


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


# ---------------------------------------------------------------------------
# bench.driver: the benchmark's own closed-loop load generators
# ---------------------------------------------------------------------------

class ClosedLoopDriver:
    """One application process on one client doing ``n_cycles`` cycles.

    A cycle is one think time followed by ``calls_per_cycle`` client API
    calls; each call is one work unit, timed in simulated seconds from
    issue to completion.  A call that raises an application error fails,
    and the calls it would have been followed by in the same cycle are
    counted as refused, so the attempted total never depends on outcomes.
    """

    calls_per_cycle = 1

    def __init__(self, system: StorageTankSystem, client_name: str,
                 n_cycles: int, think: float) -> None:
        self.system = system
        self.client = system.client(client_name)
        self.n_cycles = n_cycles
        self.think = think
        self.rng = system.streams.get(f"bench.{client_name}")
        self.latencies: List[float] = []
        self.failed = 0
        self.finished = False

    def cycle(self) -> Generator[Any, Any, None]:
        """One cycle: ``yield from self.call(gen)`` once per API call."""
        raise NotImplementedError

    def call(self, op: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
        started = self.system.sim.now
        value = yield from op
        self.latencies.append(self.system.sim.now - started)
        return value

    def run(self) -> Generator[Any, Any, None]:
        sim = self.system.sim
        for _ in range(self.n_cycles):
            yield sim.timeout(float(self.rng.exponential(self.think)))
            before = len(self.latencies)
            try:
                yield from self.cycle()
            except APP_ERRORS:
                self.failed += self.calls_per_cycle - (
                    len(self.latencies) - before)
        self.finished = True


class SteadyRwDriver(ClosedLoopDriver):
    """2-block reads (70%) and writes (30%) over private and shared files.

    Writes and half the reads go to the client's own files, the other
    reads to files every client shares read-only, so no lock is ever
    contended: this is the paper's failure-free path.
    """

    READ_FRACTION = 0.7
    IO_BLOCKS = 2
    REOPEN_PROBABILITY = 0.05
    ZIPF_S = 0.8

    def __init__(self, system: StorageTankSystem, client_name: str,
                 n_cycles: int, think: float, private: Sequence[str],
                 shared: Sequence[str], file_blocks: int) -> None:
        super().__init__(system, client_name, n_cycles, think)
        self.private = private
        self.shared = shared
        self.max_block = file_blocks - self.IO_BLOCKS
        self.zipf_private = ZipfSampler(len(private), self.ZIPF_S, self.rng)
        self.zipf_shared = ZipfSampler(len(shared), self.ZIPF_S, self.rng)
        self._fds: Dict[str, int] = {}

    def cycle(self) -> Generator[Any, Any, None]:
        yield from self.call(self._one_op())

    def _one_op(self) -> Generator[Any, Any, None]:
        rng, client = self.rng, self.client
        is_read = rng.random() < self.READ_FRACTION
        if is_read and rng.random() < 0.5:
            path, mode = self.shared[self.zipf_shared.sample()], "r"
        else:
            path, mode = self.private[self.zipf_private.sample()], "w"
        offset = int(rng.integers(0, self.max_block + 1)) * BLOCK_SIZE
        fd = self._fds.get(path)
        if fd is None:
            fd = self._fds[path] = yield from client.open_file(path, mode)
        if is_read:
            yield from client.read(fd, offset, self.IO_BLOCKS * BLOCK_SIZE)
        else:
            yield from client.write(fd, offset, self.IO_BLOCKS * BLOCK_SIZE)
        if rng.random() < self.REOPEN_PROBABILITY:
            del self._fds[path]
            yield from client.close(fd)


class IntentWriteDriver(ClosedLoopDriver):
    """open(w), growth write, batched locked range writes, close.

    The E-intent op cycle: each cycle grows the worker's own file by one
    stripe, so file length (and the extent list every open carries) grows
    through the run.
    """

    calls_per_cycle = 4
    RANGES = 4

    def __init__(self, system: StorageTankSystem, client_name: str,
                 n_cycles: int, think: float, path: str) -> None:
        super().__init__(system, client_name, n_cycles, think)
        self.path = path
        self._cycle_no = 0

    def cycle(self) -> Generator[Any, Any, None]:
        client = self.client
        stripe = self.RANGES * BLOCK_SIZE
        base = self._cycle_no * stripe
        self._cycle_no += 1
        fd = yield from self.call(client.open_file(self.path, "w"))
        yield from self.call(client.write(fd, base, stripe))
        yield from self.call(client.write_ranges_locked(
            fd, [(base + i * BLOCK_SIZE, BLOCK_SIZE)
                 for i in range(self.RANGES)]))
        yield from self.call(client.close(fd))


class MetaCacheDriver(ClosedLoopDriver):
    """lookup / getattr / readdir over Zipf-ranked paths, with a little
    create+unlink churn on names only this client uses."""

    CHURN_FRACTION = 0.05

    def __init__(self, system: StorageTankSystem, client_name: str,
                 n_cycles: int, think: float, paths: Sequence[str],
                 zipf_s: float) -> None:
        super().__init__(system, client_name, n_cycles, think)
        self.paths = paths
        self.zipf = ZipfSampler(len(paths), zipf_s, self.rng)
        self._scratch_seq = 0

    def cycle(self) -> Generator[Any, Any, None]:
        yield from self.call(self._one_op())

    def _one_op(self) -> Generator[Any, Any, None]:
        rng, client = self.rng, self.client
        path = self.paths[self.zipf.sample()]
        if rng.random() < self.CHURN_FRACTION:
            self._scratch_seq += 1
            scratch = f"{path}.{client.name}.s{self._scratch_seq:05d}"
            yield from client.create(scratch, size=0)
            yield from client.unlink(scratch)
            return
        kind = int(rng.integers(0, 3))
        if kind == 0:
            yield from client.lookup(path)
        elif kind == 1:
            yield from client.getattr(path)
        else:
            yield from client.readdir(path.rsplit("/", 1)[0] or "/")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


class Workload:
    """Base class: see the module docstring for the three steps."""

    name = ""
    unit = ""

    def __init__(self, seed: int, scale: float, shim: ConfigShim) -> None:
        self.seed = seed
        self.scale = scale
        self.shim = shim

    def prepare(self) -> None:
        raise NotImplementedError

    def window(self) -> None:
        raise NotImplementedError

    def finish(self, audit: bool = True) -> WindowResult:
        """Read the counters; with ``audit``, also check the outputs."""
        raise NotImplementedError


class OpWorkload(Workload):
    """A workload whose work units are client operations the benchmark's
    own drivers issue against one installation."""

    think = 0.05

    def __init__(self, seed: int, scale: float, shim: ConfigShim) -> None:
        super().__init__(seed, scale, shim)
        self.system: Optional[StorageTankSystem] = None
        self.drivers: List[ClosedLoopDriver] = []
        self.build_s = 0.0
        self._before: Dict[str, float] = {}
        self._sim_t0 = 0.0

    # -- pieces the concrete workloads supply -----------------------------
    def config(self) -> SystemConfig:
        raise NotImplementedError

    def populate(self) -> Generator[Any, Any, None]:
        """Create the files and the drivers (a simulation process)."""
        raise NotImplementedError

    def audit(self, counters: Dict[str, float],
              notes: Dict[str, Any]) -> List[str]:
        """Check the finished run's outputs; may add counters and notes."""
        return []

    # -- the three steps --------------------------------------------------
    def prepare(self) -> None:
        cfg = self.config()
        timer = wall_timer()
        self.system = build_system(cfg)
        self.build_s = timer()
        self.drivers = []
        boot = self.system.spawn(self.populate(), "bench-populate")
        self.system.sim.run_until_event(boot)
        self._before = snapshot(self.system)
        self._sim_t0 = self.system.sim.now

    def window(self) -> None:
        system = self.system
        assert system is not None
        procs = [system.spawn(d.run(), f"bench:{d.client.name}")
                 for d in self.drivers]
        system.sim.run_until_event(system.sim.all_of(procs))

    def finish(self, audit: bool = True) -> WindowResult:
        system = self.system
        assert system is not None
        sim_s = system.sim.now - self._sim_t0
        raw = _delta(snapshot(system), self._before)
        attempted = sum(d.n_cycles * d.calls_per_cycle for d in self.drivers)
        failed = sum(d.failed for d in self.drivers)
        lat = np.sort(np.concatenate(
            [np.asarray(d.latencies, dtype=float) for d in self.drivers]))
        done = int(lat.size)
        sim = {
            "sim_goodput_ops_s": _ratio(done, sim_s),
            "sim_op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "sim_op_p99_ms": float(np.percentile(lat, 99)) * 1e3,
            "sim_op_samples": done,
            "ctrl_msgs_per_op": _ratio(raw["net.control.datagrams"], done),
            "server_txn_per_op": _ratio(raw["server.transactions"], done),
        }
        counters = finish_counters(raw, attempted)
        counters["core.builds"] = 1
        counters["core.build_s"] = self.build_s
        problems = [f"driver {d.client.name} did not finish"
                    for d in self.drivers if not d.finished]
        if failed:
            problems.append(f"{failed} of {attempted} operations failed on "
                            f"a fault-free workload")
        result = WindowResult(attempted, failed, sim, counters, problems,
                              notes={"sim_window_s": sim_s})
        if audit:
            problems.extend(self.audit(counters, result.notes))
        return result


class SteadyRw(OpWorkload):
    name = "steady_rw"
    unit = "completed client op"
    CLIENTS = 32
    OPS_PER_CLIENT = 4000
    FILES = 8            # private per client, and shared
    FILE_BLOCKS = 64

    def config(self) -> SystemConfig:
        return self.shim.build(SystemConfig, n_clients=self.CLIENTS,
                               seed=self.seed, protocol="storage_tank",
                               record_trace=True)

    def populate(self) -> Generator[Any, Any, None]:
        system = self.system
        assert system is not None
        size = self.FILE_BLOCKS * BLOCK_SIZE
        names = list(system.config.client_names())
        shared = [f"/bench/shared/s{i:02d}" for i in range(self.FILES)]
        first = system.client(names[0])
        for path in shared:
            yield from first.create(path, size=size)
        for name in names:
            client = system.client(name)
            private = [f"/bench/{name}/p{i:02d}" for i in range(self.FILES)]
            for path in private:
                yield from client.create(path, size=size)
            self.drivers.append(SteadyRwDriver(
                system, name, _scaled(self.OPS_PER_CLIENT, self.scale),
                self.think, private, shared, self.FILE_BLOCKS))

    def audit(self, counters: Dict[str, float],
              notes: Dict[str, Any]) -> List[str]:
        # Stale reads and unsynchronized writes fail the run.  Silent lost
        # updates are counted and recorded instead: the seed commit loses
        # about one acknowledged write in 40,000 here (a page rewritten
        # while its flush is in flight is marked clean on completion,
        # README.md "Findings"), and a benchmark that cannot run on the
        # commit it is introduced on measures nothing.
        report = ConsistencyAuditor(self.system).audit()
        counters["analysis.lost_updates"] = len(report.lost_updates)
        notes["lost_updates"] = [repr(v) for v in report.lost_updates]
        problems = []
        if report.stale_reads or report.unsynchronized_writes:
            problems.append(f"consistency audit: {report.summary()}")
        return problems


class IntentWrite(OpWorkload):
    name = "intent_write"
    unit = "completed client API call"
    POPULATION = 10_000
    WORKERS = 8
    CYCLES = 600
    think = 0.2

    def config(self) -> SystemConfig:
        build = self.shim.build
        return build(SystemConfig, n_clients=self.POPULATION, seed=self.seed,
                     protocol="storage_tank", record_trace=False,
                     rpc_timeout=0.5, rpc_retries=2, writeback_interval=2.0,
                     intents=True,
                     scale=build(ScaleConfig, lazy_clients=True),
                     lease=build(LeaseConfig, tau=8.0, epsilon=0.05))

    def populate(self) -> Generator[Any, Any, None]:
        system = self.system
        assert system is not None
        for i in range(self.WORKERS):
            name = system.pool.name_of(i)
            path = f"/bench/intent/w{i:02d}"
            yield from system.client(name).create(path, size=BLOCK_SIZE)
            self.drivers.append(IntentWriteDriver(
                system, name, _scaled(self.CYCLES, self.scale), self.think,
                path))


class MetaCache(OpWorkload):
    name = "meta_cache"
    unit = "completed client op"
    POPULATION = 10_000
    ACTIVE = 48
    OPS_PER_CLIENT = 1000
    FILES = 64
    CACHE_NODES = 4
    ZIPF_S = 1.2

    def config(self) -> SystemConfig:
        build = self.shim.build
        return build(SystemConfig, n_clients=self.POPULATION, seed=self.seed,
                     protocol="storage_tank",
                     scale=build(ScaleConfig, lazy_clients=True),
                     netcache=build(NetCacheConfig, enabled=True,
                                    n_nodes=self.CACHE_NODES))

    def populate(self) -> Generator[Any, Any, None]:
        system = self.system
        assert system is not None
        paths = [f"/bench/meta/f{i:03d}" for i in range(self.FILES)]
        first = system.client(system.pool.name_of(0))
        for path in paths:
            yield from first.create(path, size=BLOCK_SIZE)
        for i in range(self.ACTIVE):
            self.drivers.append(MetaCacheDriver(
                system, system.pool.name_of(i),
                _scaled(self.OPS_PER_CLIENT, self.scale), self.think, paths,
                self.ZIPF_S))

    def audit(self, counters: Dict[str, float],
              notes: Dict[str, Any]) -> List[str]:
        problems = []
        if self.system.san.io_count != self._before["net.san.ios"]:
            problems.append("metadata-only workload touched the SAN")
        problems.extend(
            f"stale cache entry: {v}"
            for v in CacheNoStaleEntryOracle().check_final(self.system))
        return problems


class FaultFuzz(Workload):
    """Fuzz schedules through every oracle: what CI pays per schedule.

    An oracle that fires is a finding about the program, recorded with
    its seed in the result; it is not a failed work unit (the schedule ran
    through every oracle, which is the work).  A schedule fails only if
    running it raises.
    """

    name = "fault_fuzz"
    unit = "schedule run through every oracle"
    SCHEDULES = 320
    STEPS = 20
    #: flags rotate on ``i mod 4``
    ROTATION = ({}, {"cache_nodes": 2}, {"adversaries": 2}, {"intents": True})

    def __init__(self, seed: int, scale: float, shim: ConfigShim) -> None:
        super().__init__(seed, scale, shim)
        self.n = _scaled(self.SCHEDULES, scale)
        self._reset()

    def _reset(self) -> None:
        self.raw: Dict[str, float] = {}
        self.failed = 0
        self.violations: List[Tuple[int, str]] = []
        self.hashes = hashlib.sha256()
        self.client_ops = 0
        self.steps = 0

    def _one(self, i: int) -> None:
        seed_i = 10_000 * self.seed + i
        schedule = self.shim.build(generate_schedule, seed_i, self.STEPS,
                                   **self.ROTATION[i % len(self.ROTATION)])
        result = run_schedule(schedule, default_oracles(), keep_system=True)
        self.steps += len(schedule.steps)
        self.client_ops += result.ops_succeeded
        self.hashes.update(result.trace_hash.encode())
        self.violations.extend((seed_i, name)
                               for name in result.oracle_names())
        for key, value in snapshot(result.system).items():
            self.raw[key] = self.raw.get(key, 0) + value

    def prepare(self) -> None:
        # One schedule outside the measured set, so lazy imports and
        # first-call costs are paid before the window opens.
        self._one(self.n)
        self._reset()

    def window(self) -> None:
        for i in range(self.n):
            try:
                self._one(i)
            except Exception as exc:  # a crashed schedule is a failed unit
                self.failed += 1
                self.violations.append((10_000 * self.seed + i,
                                        f"raised {type(exc).__name__}: {exc}"))

    def finish(self, audit: bool = True) -> WindowResult:
        counters = finish_counters(self.raw, self.n)
        counters.update({
            "fault.steps": self.steps,
            "simtest.schedules": self.n,
            "simtest.violations": len(self.violations),
            "simtest.client_ops": self.client_ops,
            "core.builds": self.n,
        })
        violations = sorted(self.violations)
        return WindowResult(
            self.n, self.failed, sim=dict.fromkeys(SIM_OP_METRICS),
            counters=counters,
            notes={"violations": [list(v) for v in violations],
                   "sim_detail": [self.hashes.hexdigest(), violations]})


class ScalePark(Workload):
    """``scale_point``: build half a million parked clients, sweep their
    pooled leases, wake a small active set.  Set-up *is* the work."""

    name = "scale_park"
    unit = "registered client"
    CLIENTS = 500_000
    ACTIVE = 48
    DURATION = 30.0

    def __init__(self, seed: int, scale: float, shim: ConfigShim) -> None:
        super().__init__(seed, scale, shim)
        self.n = _scaled(self.CLIENTS, scale)
        self.point: Dict[str, float] = {}

    def prepare(self) -> None:
        self.shim.build(scale_point, 2_000, seed=self.seed, active=4,
                        duration=1.0)

    def window(self) -> None:
        self.point = self.shim.build(scale_point, self.n, seed=self.seed,
                                     active=self.ACTIVE,
                                     duration=self.DURATION)

    def finish(self, audit: bool = True) -> WindowResult:
        p = self.point
        counters = {
            "sim.events": p["events"],
            "sim.events_per_work": _ratio(p["events"], self.n),
            "client.pool.materializations": p["live"],
            "client.pool.bytes_per_client": p["bytes_per_client"],
            "lease.pooled_expired": p["parked_expiries"],
            "server.transactions": round(p["txn_per_sim_s"] * self.DURATION),
            "simtest.client_ops": p["ops_succeeded"],
            "core.builds": 1,
            "core.build_s": p["build_s"],
        }
        problems = []
        if p["clients"] != self.n:
            problems.append(f"scale_point built {p['clients']} clients, "
                            f"not {self.n}")
        if p["kernel_after_build"] > 64:
            problems.append("kernel heap after build grows with population: "
                            f"{p['kernel_after_build']} entries")
        return WindowResult(self.n, 0, sim=dict.fromkeys(SIM_OP_METRICS),
                            counters=counters, problems=problems,
                            notes={"sim_detail": [
                                p["events"], p["ops_succeeded"],
                                p["parked_expiries"], p["kernel_after_run"]]})


WORKLOADS = {cls.name: cls for cls in (SteadyRw, IntentWrite, MetaCache,
                                       FaultFuzz, ScalePark)}


# ---------------------------------------------------------------------------
# ungated probe: write-shared files (not a workload, not in BENCHMARK.json)
# ---------------------------------------------------------------------------

class SharedRwDriver(ClosedLoopDriver):
    """90% reads, 10% writes over files every client may write."""

    READ_FRACTION = 0.9
    IO_BLOCKS = 2

    def __init__(self, system: StorageTankSystem, client_name: str,
                 n_cycles: int, think: float, paths: Sequence[str],
                 file_blocks: int) -> None:
        super().__init__(system, client_name, n_cycles, think)
        self.paths = paths
        self.max_block = file_blocks - self.IO_BLOCKS
        self.zipf = ZipfSampler(len(paths), 0.8, self.rng)
        self.stalled = 0

    def cycle(self) -> Generator[Any, Any, None]:
        started = self.system.sim.now
        try:
            yield from self.call(self._one_op())
        finally:
            if self.system.sim.now - started > SharedRwProbe.STALL_SIM_S:
                self.stalled += 1

    def _one_op(self) -> Generator[Any, Any, None]:
        rng, client = self.rng, self.client
        path = self.paths[self.zipf.sample()]
        is_read = rng.random() < self.READ_FRACTION
        offset = int(rng.integers(0, self.max_block + 1)) * BLOCK_SIZE
        fd = yield from client.open_file(path, "r" if is_read else "w")
        try:
            if is_read:
                yield from client.read(fd, offset,
                                       self.IO_BLOCKS * BLOCK_SIZE)
            else:
                yield from client.write(fd, offset,
                                        self.IO_BLOCKS * BLOCK_SIZE)
        finally:
            yield from client.close(fd)


class SharedRwProbe(OpWorkload):
    """What sharing files *for writing* does today: it collapses, and the
    collapse swings 2-4x between seeds, so it cannot gate anything yet."""

    name = "shared_rw"
    CLIENTS = 8
    OPS_PER_CLIENT = 250
    FILES = 16
    FILE_BLOCKS = 64
    SEEDS = 6
    STALL_SIM_S = 10.0

    def config(self) -> SystemConfig:
        return self.shim.build(SystemConfig, n_clients=self.CLIENTS,
                               seed=self.seed, protocol="storage_tank")

    def populate(self) -> Generator[Any, Any, None]:
        system = self.system
        assert system is not None
        names = list(system.config.client_names())
        paths = [f"/bench/probe/f{i:02d}" for i in range(self.FILES)]
        for path in paths:
            yield from system.client(names[0]).create(
                path, size=self.FILE_BLOCKS * BLOCK_SIZE)
        for name in names:
            self.drivers.append(SharedRwDriver(
                system, name, self.OPS_PER_CLIENT, self.think, paths,
                self.FILE_BLOCKS))

    @classmethod
    def pooled(cls, seed: int) -> Dict[str, float]:
        """Run ``SEEDS`` seeds and pool them."""
        ops = done = stalled = 0
        sim_s = 0.0
        for i in range(cls.SEEDS):
            probe = cls(cls.SEEDS * seed + i, 1.0, ConfigShim())
            probe.prepare()
            probe.window()
            ops += sum(d.n_cycles for d in probe.drivers)
            done += sum(len(d.latencies) for d in probe.drivers)
            stalled += sum(d.stalled for d in probe.drivers)
            sim_s += probe.system.sim.now - probe._sim_t0
        return {"ops": ops, "goodput_ops_per_sim_s": _ratio(done, sim_s),
                "failed_share": _ratio(ops - done, ops),
                "ops_stalled_over_10_sim_s": stalled}
