"""Execute one schedule against a full system under the oracle library.

The runner is the bridge between a plain-data :class:`Schedule` and a
verdict: build the system from the schedule's seed, optionally sabotage
it (``break_mode`` — used to prove the oracles actually catch broken
protocol implementations), bootstrap the shared file set, let the fault
injector and per-client workload drivers loose, poll the live oracles
while the run is in flight, settle, and run the final oracles.

Every run also produces a *canonical trace hash*: sha256 over a
normalized rendering of the event trace (module-global message ids are
dropped — they are the one counter that survives across runs in the
same process).  Two runs of the same schedule hash identically, which
is what seed-corpus replay in CI asserts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.system import StorageTankSystem, build_system
from repro.fault.adversary import BYZANTINE_KINDS
from repro.fault.injector import FaultInjector
from repro.sim.events import Event
from repro.simtest.oracles import Oracle, OracleViolation, default_oracles
from repro.simtest.schedule import Schedule
from repro.workloads.generator import WorkloadDriver, populate_files

#: Detail keys excluded from the canonical trace (process-global counters).
_NONCANONICAL_KEYS = frozenset({"msg_id"})

#: How often (global seconds) the live oracles inspect system state.
LIVE_CHECK_INTERVAL = 0.5

#: Extra run time after the last horizon second, in lease intervals —
#: room for expiries, steals and the post-heal writeback to play out.
SETTLE_LEASES = 1.5


def _noop() -> None:
    return None


def _break_skip_flush(system: StorageTankSystem) -> None:
    """Sabotage: clients never perform the expected-failure flush (and
    their background writeback is effectively disabled so it cannot
    mask the missing phase-4 flush)."""
    for client in system.pool.iter_active():
        leases = getattr(client, "leases", None)
        if leases is None:
            continue
        for manager in leases.values():
            manager.callbacks.on_enter_flush = _noop
        client.config.writeback_interval = 1e9


def _break_ack_expiring(system: StorageTankSystem) -> None:
    """Sabotage: the server ACKs clients it is timing out (the E4
    ablation), renewing leases it is about to steal from under."""
    for srv in _servers(system).values():
        authority = getattr(srv, "authority", None)
        if authority is not None:
            authority.ack_while_expiring = True


def _break_steal_early(system: StorageTankSystem) -> None:
    """Sabotage: the server's suspect timer waits a fraction of τ
    instead of τ(1+ε), stealing locks while the victim's lease is
    still provably valid (breaks Theorem 3.1)."""
    from dataclasses import replace
    for srv in _servers(system).values():
        authority = getattr(srv, "authority", None)
        if authority is not None:
            authority.contract = replace(authority.contract,
                                         tau=authority.contract.tau * 0.3,
                                         epsilon=0.0)


def _break_blind_unfence(system: StorageTankSystem) -> None:
    """Sabotage: the server unfences any fenced client on its next RPC
    without requiring a lapse attestation — the pre-fix rejoin hole
    (an ignore-expiry client that never quiesced walks right back in)."""
    for srv in _servers(system).values():
        setattr(srv.lock_service, "_attested_since_fence",
                lambda client: True)


def _break_blind_reassert(system: StorageTankSystem) -> None:
    """Sabotage: the server grants any non-conflicting LOCK_REASSERT
    without checking fencing or theft evidence — the pre-fix
    stale-capability replay hole."""
    for srv in _servers(system).values():
        recovery = getattr(srv, "recovery", None)
        if recovery is not None and hasattr(recovery, "_reassert_allowed"):
            setattr(recovery, "_reassert_allowed",
                    lambda client, obj: True)


def _break_no_demand_escalate(system: StorageTankSystem) -> None:
    """Sabotage: the server never escalates a perpetually-ACKing,
    never-complying lock holder to suspect, so a suppress_release
    adversary starves honest waiters forever."""
    for srv in _servers(system).values():
        config = getattr(srv, "config", None)
        if config is not None and hasattr(config, "demand_escalate_rounds"):
            config.demand_escalate_rounds = 0


def _break_skip_reply_stamp(system: StorageTankSystem) -> None:
    """Sabotage: server ACKs carry no stamp, so no client ever learns
    of a restart (``__epoch__``) and none reasserts its locks — the
    restarted server re-grants them while the old holder still caches
    them (§6)."""
    for srv in _servers(system).values():
        srv.endpoint.reply_stamp = None


def _break_zombie_parked(system: StorageTankSystem) -> None:
    """Sabotage: a server crash leaves its parked transactions running,
    so a handler that was waiting grants a lock in the wiped table and
    answers in the next incarnation's name."""
    for srv in _servers(system).values():
        def crash(endpoint: Any = srv.endpoint,
                  crash: Callable[[], None] = srv.endpoint.crash) -> None:
            parked, endpoint._parked = endpoint._parked, {}
            crash()
            endpoint._parked = parked
        setattr(srv.endpoint, "crash", crash)


#: Registry of deliberate protocol breaks, for oracle/shrinker testing.
BREAK_MODES: Dict[str, Callable[[StorageTankSystem], None]] = {
    "skip_flush": _break_skip_flush,
    "ack_expiring": _break_ack_expiring,
    "steal_early": _break_steal_early,
    "blind_unfence": _break_blind_unfence,
    "blind_reassert": _break_blind_reassert,
    "no_demand_escalate": _break_no_demand_escalate,
    "skip_reply_stamp": _break_skip_reply_stamp,
    "zombie_parked": _break_zombie_parked,
}


def _is_adversarial(schedule: Schedule) -> bool:
    """Whether the schedule possesses any client (generated or crafted)."""
    return (schedule.adversaries > 0
            or any(step.kind in BYZANTINE_KINDS for step in schedule.steps))


def _enable_adversarial_defenses(system: StorageTankSystem) -> None:
    """Arm the containment behaviors that are off for fail-stop runs.

    Chain demands (pump-regrant starvation fix) change the RPC trace of
    honest runs, so they are gated off by default to keep the blessed
    fail-stop corpus replayable; any schedule with a Byzantine step gets
    them, since a never-releasing holder makes the starvation unbounded.
    """
    for srv in _servers(system).values():
        config = getattr(srv, "config", None)
        if config is not None and hasattr(config, "demand_chain"):
            config.demand_chain = True


def _servers(system: StorageTankSystem) -> Dict[str, Any]:
    servers = getattr(system, "servers", None)
    if servers:
        return dict(servers)
    return {system.server.name: system.server}


def apply_break_mode(system: StorageTankSystem, break_mode: str) -> None:
    """Apply a registered sabotage to a freshly built system."""
    if not break_mode:
        return
    fn = BREAK_MODES.get(break_mode)
    if fn is None:
        raise ValueError(f"unknown break mode {break_mode!r}; "
                         f"known: {sorted(BREAK_MODES)}")
    fn(system)


def trace_lines(system: StorageTankSystem) -> List[str]:
    """The canonical, hashable rendering of a finished run's trace."""
    lines = []
    for rec in system.trace.records:
        detail = " ".join(
            f"{k}={rec.detail[k]!r}" for k in sorted(rec.detail)
            if k not in _NONCANONICAL_KEYS)
        lines.append(f"{rec.time:.9f} {rec.kind} {rec.node} {detail}")
    return lines


def trace_hash(system: StorageTankSystem) -> str:
    """sha256 of the canonical trace rendering."""
    digest = hashlib.sha256()
    for line in trace_lines(system):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class SimRunResult:
    """Everything one schedule execution produced."""

    schedule: Schedule
    violations: List[OracleViolation] = field(default_factory=list)
    trace_hash: str = ""
    ops_succeeded: int = 0
    system: Optional[StorageTankSystem] = None

    @property
    def ok(self) -> bool:
        """True when every oracle stayed silent."""
        return not self.violations

    def oracle_names(self) -> List[str]:
        """Sorted names of the oracles that fired."""
        return sorted({v.oracle for v in self.violations})


def run_schedule(schedule: Schedule,
                 oracles: Optional[List[Oracle]] = None,
                 keep_system: bool = False) -> SimRunResult:
    """Run one schedule to completion and return its verdict.

    Deterministic: the schedule (plus the oracle list, which draws no
    randomness) fully determines the run, so calling this twice with
    equal schedules yields identical violations and trace hashes.
    """
    oracle_list = oracles if oracles is not None else default_oracles()
    system = build_system(schedule.system_config())
    apply_break_mode(system, schedule.break_mode)
    if _is_adversarial(schedule):
        _enable_adversarial_defenses(system)

    # Bootstrap the shared working set before any fault fires.
    boot = system.spawn(populate_files(system), "simtest-populate")
    paths: List[str] = system.sim.run_until_event(boot, hard_limit=60.0)
    t0 = system.sim.now

    injector = FaultInjector(system)
    for step in schedule.steps:
        injector.apply_step(t0 + step.time, step.kind, step.params)
    injector.start()

    drivers = [WorkloadDriver(system, name, paths)
               for name in system.config.client_names()]
    for driver in drivers:
        system.spawn(driver.run(schedule.horizon), f"simtest-wl:{driver.client.name}")

    live_hits: List[OracleViolation] = []
    seen_keys = set()

    def live_checker() -> Generator[Event, Any, None]:
        end = t0 + schedule.horizon
        while system.sim.now < end:
            yield system.sim.timeout(LIVE_CHECK_INTERVAL)
            for oracle in oracle_list:
                for v in oracle.check_live(system):
                    if v.key() not in seen_keys:
                        seen_keys.add(v.key())
                        live_hits.append(v)

    system.spawn(live_checker(), "simtest-live-oracles")

    settle = SETTLE_LEASES * schedule.tau * (1.0 + schedule.epsilon)
    system.run(until=t0 + schedule.horizon + settle)

    violations = list(live_hits)
    for oracle in oracle_list:
        for v in oracle.check_final(system):
            if v.key() not in seen_keys:
                seen_keys.add(v.key())
                violations.append(v)
    violations.sort(key=lambda v: (v.time, v.oracle, v.node))

    ops = sum(d.stats.ops_succeeded for d in drivers)
    return SimRunResult(schedule=schedule, violations=violations,
                        trace_hash=trace_hash(system), ops_succeeded=ops,
                        system=system if keep_system else None)
