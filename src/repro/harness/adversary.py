"""E-adv: Byzantine adversaries against a 1k-client install (§6).

The paper's §6 claim is containment: a client that "fails to respect
its lease" is fenced at the shared store, and everyone else keeps
working.  This experiment measures both halves of that sentence at
population scale.  It builds a 1 000-client lazy install, wakes a small
honest active set plus a swept number of adversaries, possesses each
adversary with one behavior from the Byzantine vocabulary
(:data:`repro.fault.adversary.BYZANTINE_KINDS`), and reports:

* **honest goodput** — successful operations per second across the
  honest active set, versus the adversary-free baseline;
* **time-to-fence** — per adversary, global seconds from possession to
  the server's ``server.fence`` record for that client (the §6
  resolution latency); adversaries whose behavior never warrants a
  fence (e.g. a pure clock-stretcher that keeps renewing on time from
  the server's perspective) are reported unfenced.

Behaviors that only misbehave across a lease lapse (ignore-expiry,
stale replay, forged SAN writes) are paired with a transient control
partition — the §6 trigger — exactly as the adversarial fuzz schedules
pair them.  Run with ``python -m repro.harness e-adv``; EXPERIMENTS.md
records representative output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.report import Table
from repro.core.config import (LeaseConfig, ScaleConfig, SystemConfig,
                               WorkloadConfig)
from repro.core.system import StorageTankSystem, build_system
from repro.fault.adversary import BYZANTINE_KINDS
from repro.fault.injector import FaultInjector
from repro.harness.registry import experiment
from repro.workloads.generator import WorkloadDriver, populate_files

#: Adversary counts swept (at a fixed 1k client population).
SWEEP_COUNTS: Tuple[int, ...] = (0, 1, 2, 4)

#: Honest active-set size (the workers whose goodput we report).
HONEST_ACTIVE = 8

#: Behavior mix, applied round-robin over the adversary set — ordered
#: so small sweeps still cover the most containment machinery.
BEHAVIOR_MIX: Tuple[str, ...] = ("suppress_release", "ignore_lease_expiry",
                                 "forge_san_write", "replay_stale_grant",
                                 "stretch_clock")

#: Behaviors that need a lease lapse to bite, paired with a transient
#: control partition (the §6 trigger) like the fuzz schedules do.
NEEDS_PARTITION = frozenset({"ignore_lease_expiry", "forge_san_write",
                             "replay_stale_grant"})

#: Partition window (onset offset after possession, duration).
PARTITION_AFTER = 1.0
PARTITION_SPAN = 14.0


def adv_point(adversaries: int, seed: int = 0, n_clients: int = 1_000,
              duration: float = 40.0) -> Dict[str, Any]:
    """Run one sweep point and return its raw measurements."""
    system = _build(n_clients, seed)
    paths = _populate(system)
    t0 = system.sim.now

    honest = [f"c{i}" for i in range(1, HONEST_ACTIVE + 1)]
    adv = [f"c{i}" for i in range(HONEST_ACTIVE + 1,
                                  HONEST_ACTIVE + 1 + adversaries)]
    mix = [BEHAVIOR_MIX[i % len(BEHAVIOR_MIX)] for i in range(adversaries)]

    injector = FaultInjector(system)
    for i, (name, kind) in enumerate(zip(adv, mix)):
        # Early, while the honest set still contends for what the
        # adversary holds: with chain demands off (ServerConfig
        # .demand_chain) the unchained waiter queues park the whole
        # active set within ~3 s, after which nobody is left to demand
        # a suppressed lock and no escalation can start.
        onset = 2.0 + 1.0 * i
        injector.apply_step(t0 + onset, kind, {"client": name})
        if kind in NEEDS_PARTITION:
            injector.apply_step(t0 + onset + PARTITION_AFTER,
                                "isolate_client", {"client": name})
            injector.apply_step(t0 + onset + PARTITION_AFTER + PARTITION_SPAN,
                                "heal_control", {})
    injector.start()

    drivers = [WorkloadDriver(system, name, paths) for name in honest + adv]
    for d in drivers:
        system.spawn(d.run(duration), f"e-adv:{d.client.name}")
    tau = system.config.lease.tau
    system.run(until=t0 + duration + 2.0 * tau)

    honest_ops = sum(d.stats.ops_succeeded for d in drivers[:len(honest)])
    fence_times = _fence_latencies(system, adv)
    fenced = [t for t in fence_times.values() if t is not None]
    return {
        "adversaries": adversaries,
        "mix": "+".join(sorted(set(mix))) if mix else "-",
        "honest_goodput": honest_ops / duration,
        "fenced": len(fenced),
        "mean_ttf": (sum(fenced) / len(fenced)) if fenced else None,
        "max_ttf": max(fenced) if fenced else None,
    }


@experiment("e-adv",
            summary="Byzantine adversary sweep at 1k clients: honest "
                    "goodput and §6 time-to-fence per behavior mix")
def experiment_e_adv(seed: int = 0, clients: int = 1_000,
                     duration: float = 40.0) -> Table:
    """Sweep the adversary count at a fixed 1k-client population."""
    table = Table(
        "E-adv  Byzantine containment at 1k clients (§6: fence, don't fail)",
        ["adversaries", "behavior_mix", "honest_goodput_ops_s",
         "fenced", "mean_ttf_s", "max_ttf_s"])
    for count in SWEEP_COUNTS:
        p = adv_point(count, seed=seed, n_clients=clients, duration=duration)
        table.add_row(p["adversaries"], p["mix"],
                      round(float(p["honest_goodput"]), 2),
                      f"{p['fenced']}/{p['adversaries']}",
                      "-" if p["mean_ttf"] is None
                      else round(float(p["mean_ttf"]), 2),
                      "-" if p["max_ttf"] is None
                      else round(float(p["max_ttf"]), 2))
    table.note("time-to-fence runs from the byz.possess record to the "
               "server's first server.fence record for that client; "
               "lapse-dependent behaviors get a transient control "
               "partition (the §6 trigger), matching the fuzz schedules.")
    table.note("a clock-stretcher that keeps renewing needs no fence — "
               "Theorem 3.1's wait already covers it — so fenced can be "
               "< adversaries without a containment failure.")
    return table


def _build(n_clients: int, seed: int) -> StorageTankSystem:
    cfg = SystemConfig(
        n_clients=n_clients, seed=seed, protocol="storage_tank",
        record_trace=True, rpc_timeout=0.5, rpc_retries=2,
        writeback_interval=2.0,
        scale=ScaleConfig(lazy_clients=True),
        lease=LeaseConfig(tau=8.0, epsilon=0.05),
        workload=WorkloadConfig(n_files=6, file_size_blocks=8,
                                read_fraction=0.6, think_time=0.2,
                                io_blocks=2))
    return build_system(cfg)


def _populate(system: StorageTankSystem) -> List[str]:
    system.client("c1")    # materialize the client that populates
    boot = system.spawn(populate_files(system), "e-adv-populate")
    paths: List[str] = system.sim.run_until_event(boot, hard_limit=60.0)
    return paths


def _fence_latencies(system: StorageTankSystem,
                     adversaries: List[str],
                     ) -> Dict[str, Optional[float]]:
    """Possession→fence latency per adversary (None if never fenced)."""
    possessed: Dict[str, float] = {}
    fenced: Dict[str, float] = {}
    for rec in system.trace.records:
        if rec.kind == "byz.possess" and rec.node in adversaries:
            possessed.setdefault(rec.node, rec.time)
        elif rec.kind == "server.fence":
            client = str(rec.detail.get("client", ""))
            if client in adversaries and client in possessed \
                    and client not in fenced:
                fenced[client] = rec.time
    return {name: (fenced[name] - possessed[name]
                   if name in fenced and name in possessed else None)
            for name in adversaries}
