"""Schedule data model and the seeded fault-schedule generator.

A :class:`Schedule` is plain data: the root seed, the environment knobs
(cluster size, τ, drawn ε, horizon) and a sorted tuple of
:class:`FaultStep` entries whose kinds come from
:data:`repro.fault.STEP_KINDS`.  Because every random draw — the
schedule itself, the clock rates, the workload, the network jitter —
flows from the one root seed through :class:`repro.sim.rng.RandomStreams`,
a schedule is a complete, replayable description of a run: serialize it
(:meth:`Schedule.to_dict`), ship it in a failure artifact, feed it back
through :func:`repro.simtest.runner.run_schedule` and the event trace
hashes bit-identically.

The generator (:func:`generate_schedule`) draws *primary* fault events —
client isolation, SAN cuts, client/server crashes, message-loss bursts —
and pairs most of them with a later heal/restart/burst-end step, so a
generated schedule exercises both fault onset and recovery paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.config import (LeaseConfig, NetCacheConfig, SystemConfig,
                               WorkloadConfig)
from repro.fault.adversary import BYZANTINE_KINDS
from repro.fault.injector import ScheduleError, check_step
from repro.sim.rng import RandomStreams

#: Version stamp for serialized schedules (embedded in failure artifacts).
SCHEDULE_SCHEMA = "repro.simtest.schedule/1.0"

#: Kinds the generator may draw as primary events, with relative weights.
#: Heals / restarts / burst-ends are emitted as paired follow-up steps,
#: never drawn independently (an unpaired heal is a no-op).
PRIMARY_KINDS: Tuple[Tuple[str, float], ...] = (
    ("isolate_client", 3.0),
    ("partition_san", 2.0),
    ("crash_client_lossy", 2.0),
    ("crash_server", 1.0),
    ("loss_burst", 2.0),
)

#: Extra primaries joined to the pool only when the schedule runs a
#: netcache tier (``cache_nodes > 0``), so cache-less schedules draw an
#: unchanged RNG sequence.
CACHE_KINDS: Tuple[Tuple[str, float], ...] = (
    ("crash_cache", 2.0),
    ("flush_cache", 1.0),
)

#: Byzantine possession kinds with relative weights, in
#: :data:`~repro.fault.adversary.BYZANTINE_KINDS`' order (drawn once per
#: adversary in the schedule's adversary budget, *after* the primary
#: loop, so fail-stop schedules draw an unchanged RNG sequence).
BYZ_KINDS: Tuple[Tuple[str, float], ...] = tuple(
    zip(BYZANTINE_KINDS, (3.0, 2.0, 2.0, 2.0, 1.0)))


@dataclass(frozen=True)
class FaultStep:
    """One data-described fault action at a relative schedule time."""

    time: float
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        check_step(self.time, self.kind, self.params)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return {"time": self.time, "kind": self.kind,
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultStep":
        return cls(time=float(data["time"]), kind=str(data["kind"]),
                   params=dict(data.get("params") or {}))


@dataclass(frozen=True)
class Schedule:
    """A complete, replayable fuzz-run description."""

    seed: int
    horizon: float
    n_clients: int = 3
    tau: float = 8.0
    epsilon: float = 0.05
    break_mode: str = ""
    steps: Tuple[FaultStep, ...] = ()
    #: Number of in-network metadata cache nodes (0 = no cache tier;
    #: pre-existing serialized schedules deserialize to 0).
    cache_nodes: int = 0
    #: Adversary budget: how many Byzantine possession steps the
    #: generator drew (0 = fail-stop only; pre-existing serialized
    #: schedules deserialize to 0).
    adversaries: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "steps",
            tuple(sorted(self.steps, key=lambda s: s.time)))
        for step in self.steps:
            if step.time > self.horizon:
                raise ScheduleError(
                    f"fault step at t={step.time} lies beyond the "
                    f"schedule horizon {self.horizon}")

    def with_steps(self, steps: Sequence[FaultStep]) -> "Schedule":
        """The same run environment with a different step list (the
        shrinker's primitive operation)."""
        return replace(self, steps=tuple(steps))

    def system_config(self) -> SystemConfig:
        """The installation this schedule runs against.

        Small and fast on purpose: τ is short so lease phase
        transitions, expiries and steals all happen within a bounded
        horizon; RPC timeouts are tightened so an in-flight op admitted
        before the suspect boundary still drains inside the flush
        window; the workload hammers a handful of files so clients
        actually contend for locks.
        """
        if self.cache_nodes > 0:
            # Cache-tier runs shift the workload toward metadata so the
            # hit path, the invalidation barrier and the stale-entry
            # oracle all see real traffic.
            workload = WorkloadConfig(n_files=4, file_size_blocks=8,
                                      read_fraction=0.6, think_time=0.2,
                                      io_blocks=2, meta_fraction=0.5,
                                      meta_mutate_fraction=0.25)
            netcache = NetCacheConfig(n_nodes=self.cache_nodes)
        else:
            workload = WorkloadConfig(n_files=4, file_size_blocks=8,
                                      read_fraction=0.6, think_time=0.2,
                                      io_blocks=2)
            netcache = NetCacheConfig()
        return SystemConfig(
            n_clients=self.n_clients,
            n_servers=1,
            seed=self.seed,
            protocol="storage_tank",
            record_trace=True,
            rpc_timeout=0.5,
            rpc_retries=2,
            writeback_interval=2.0,
            lease=LeaseConfig(tau=self.tau, epsilon=self.epsilon),
            workload=workload,
            netcache=netcache,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (embedded in failure artifacts)."""
        return {
            "schema": SCHEDULE_SCHEMA,
            "seed": self.seed,
            "horizon": self.horizon,
            "n_clients": self.n_clients,
            "tau": self.tau,
            "epsilon": self.epsilon,
            "break_mode": self.break_mode,
            "cache_nodes": self.cache_nodes,
            "adversaries": self.adversaries,
            "steps": [s.to_dict() for s in self.steps],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schedule":
        """Inverse of :meth:`to_dict`.  Documents written while the
        protocol had a split-op variant carry an ``"intents"`` key; it
        is ignored."""
        schema = data.get("schema")
        if schema != SCHEDULE_SCHEMA:
            raise ScheduleError(
                f"expected schedule schema {SCHEDULE_SCHEMA!r}, "
                f"got {schema!r}")
        return cls(
            seed=int(data["seed"]),
            horizon=float(data["horizon"]),
            n_clients=int(data.get("n_clients", 3)),
            tau=float(data.get("tau", 8.0)),
            epsilon=float(data.get("epsilon", 0.05)),
            break_mode=str(data.get("break_mode", "")),
            cache_nodes=int(data.get("cache_nodes", 0)),
            adversaries=int(data.get("adversaries", 0)),
            steps=tuple(FaultStep.from_dict(s)
                        for s in data.get("steps", ())),
        )


def generate_schedule(seed: int, n_steps: int,
                      break_mode: str = "",
                      cache_nodes: int = 0,
                      adversaries: int = 0) -> Schedule:
    """Draw a randomized fault schedule from one root seed.

    ``n_steps`` counts *primary* fault events; paired heals, restarts
    and burst-ends roughly double the final step count.  The horizon
    scales with ``n_steps`` so event density stays constant, and every
    draw comes from the ``"simtest.schedule"`` stream of
    ``RandomStreams(seed)`` — two calls with the same arguments build
    identical schedules.  With ``cache_nodes > 0`` the run gets a
    netcache tier and cache crash/flush kinds join the primary pool;
    with 0 the draw sequence is identical to pre-cache releases.
    With ``adversaries > 0``, that many Byzantine possession steps are
    drawn *after* the primary loop (victim, kind, early onset time), so
    fail-stop schedules draw an unchanged RNG sequence.
    """
    if n_steps < 0:
        raise ScheduleError(f"n_steps must be >= 0, got {n_steps}")
    if cache_nodes < 0:
        raise ScheduleError(f"cache_nodes must be >= 0, got {cache_nodes}")
    if adversaries < 0:
        raise ScheduleError(f"adversaries must be >= 0, got {adversaries}")
    rng = RandomStreams(seed).get("simtest.schedule")
    n_clients = int(rng.integers(2, 4))           # 2 or 3
    epsilon = float(rng.uniform(0.0, 0.1))
    horizon = 16.0 + 1.0 * n_steps

    clients = [f"c{i}" for i in range(1, n_clients + 1)]
    caches = [f"mcache{i}" for i in range(1, cache_nodes + 1)]
    pool = list(PRIMARY_KINDS)
    if cache_nodes > 0:
        pool.extend(CACHE_KINDS)
    kinds = [k for k, _ in pool]
    weights = [w for _, w in pool]
    total_w = sum(weights)
    probs = [w / total_w for w in weights]

    steps: List[FaultStep] = []
    # Primary events land in the first ~80% of the horizon so their
    # recovery phases have room to play out before the run ends.
    onset_lo, onset_hi = 2.0, max(2.5, horizon * 0.8)
    for _ in range(n_steps):
        t = float(rng.uniform(onset_lo, onset_hi))
        dur = float(rng.uniform(1.0, max(1.5, horizon / 5.0)))
        t_heal = min(t + dur, horizon)
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        if kind == "isolate_client":
            client = clients[int(rng.integers(0, n_clients))]
            steps.append(FaultStep(t, "isolate_client", {"client": client}))
            steps.append(FaultStep(t_heal, "heal_control"))
        elif kind == "partition_san":
            client = clients[int(rng.integers(0, n_clients))]
            steps.append(FaultStep(t, "partition_san",
                                   {"initiator": client, "device": "disk1"}))
            steps.append(FaultStep(t_heal, "heal_san"))
        elif kind == "crash_client_lossy":
            client = clients[int(rng.integers(0, n_clients))]
            steps.append(FaultStep(t, "crash_client_lossy",
                                   {"client": client}))
            if rng.uniform() < 0.75:
                steps.append(FaultStep(t_heal, "restart_client",
                                       {"client": client}))
        elif kind == "crash_server":
            steps.append(FaultStep(t, "crash_server", {"server": "server"}))
            if rng.uniform() < 0.85:
                steps.append(FaultStep(t_heal, "restart_server",
                                       {"server": "server"}))
        elif kind == "loss_burst":
            p = float(rng.uniform(0.05, 0.4))
            steps.append(FaultStep(t, "loss_burst", {"probability": p}))
            steps.append(FaultStep(t_heal, "end_loss_burst"))
        elif kind == "crash_cache":
            node = caches[int(rng.integers(0, cache_nodes))]
            steps.append(FaultStep(t, "crash_cache", {"node": node}))
            if rng.uniform() < 0.8:
                steps.append(FaultStep(t_heal, "restart_cache",
                                       {"node": node}))
        else:  # flush_cache
            node = caches[int(rng.integers(0, cache_nodes))]
            steps.append(FaultStep(t, "flush_cache", {"node": node}))

    # Byzantine possessions land early (first ~40% of the horizon) so
    # the run has room to detect, steal from and fence the adversary.
    byz_kinds = [k for k, _ in BYZ_KINDS]
    byz_w = [w for _, w in BYZ_KINDS]
    byz_total = sum(byz_w)
    byz_probs = [w / byz_total for w in byz_w]
    for _ in range(adversaries):
        client = clients[int(rng.integers(0, n_clients))]
        kind = byz_kinds[int(rng.choice(len(byz_kinds), p=byz_probs))]
        t = float(rng.uniform(1.0, max(1.5, horizon * 0.4)))
        steps.append(FaultStep(t, kind, {"client": client}))

    return Schedule(seed=seed, horizon=horizon, n_clients=n_clients,
                    epsilon=epsilon, break_mode=break_mode,
                    cache_nodes=cache_nodes, adversaries=adversaries,
                    steps=tuple(steps))
