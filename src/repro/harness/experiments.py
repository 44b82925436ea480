"""Experiments E1-E10: every figure, scenario and claim in the paper.

Each function is deterministic given its seed and returns one or more
:class:`~repro.analysis.report.Table` objects.  DESIGN.md §4 maps each
experiment to its paper source; EXPERIMENTS.md records representative
output against the paper's expectations.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.analysis.availability import unavailability_after
from repro.analysis.consistency import ConsistencyAuditor
from repro.analysis.metrics import collect_overheads
from repro.analysis.report import Table
from repro.core.config import LeaseConfig, SystemConfig, WorkloadConfig
from repro.core.system import StorageTankSystem, build_system
from repro.harness.registry import experiment, view as _registry_view
from repro.harness.common import (
    APP_ERRORS,
    ScenarioLog,
    cache_reader_loop,
    contender_takes_over,
    fsync_loop,
    holder_with_dirty_data,
    writer_loop,
)
from repro.lease.contract import LeaseContract, verify_theorem_3_1
from repro.lease.phases import LeasePhase
from repro.net.partition import asymmetric_witnesses
from repro.protocols.dlock_fs import DlockClient
from repro.sim.clock import ClockEnsemble, LocalClock
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.storage.blockmap import BLOCK_SIZE
from repro.storage.disk import VirtualDisk
from repro.net.san import SanFabric
from repro.workloads.generator import run_workload

# ---------------------------------------------------------------------------
# E1 — Fig. 1 / §1.1: direct SAN data access vs. a server-marshalled FS
# ---------------------------------------------------------------------------

@experiment("e1")
def experiment_e1_direct_access(seed: int = 0, duration: float = 30.0,
                                n_clients: int = 4) -> Table:
    """The server in the direct-access model moves zero file-data bytes;
    its load is transactions, not megabytes (paper §1.1)."""
    table = Table(
        "E1  Direct SAN access vs server-marshalled data path (Fig. 1, §1.1)",
        ["data_path", "ops", "server_data_MB", "ctrl_MB",
         "san_MB", "server_txn", "txn_per_op"])
    for data_path in ("direct", "server"):
        cfg = SystemConfig(
            n_clients=n_clients, seed=seed, protocol="storage_tank",
            data_path=data_path,
            workload=WorkloadConfig(n_files=12, read_fraction=0.5,
                                    think_time=0.05, io_blocks=4))
        system = build_system(cfg)
        stats = run_workload(system, duration)
        ops = sum(s.ops_succeeded for s in stats.values())
        server_mb = system.server.data_bytes_served / 1e6
        ctrl_mb = system.control_net.bytes_delivered / 1e6
        san_mb = (system.san.bytes_read + system.san.bytes_written) / 1e6
        txn = system.server.transactions
        table.add_row(data_path, ops, round(server_mb, 3), round(ctrl_mb, 3),
                      round(san_mb, 3), txn, round(txn / max(ops, 1), 2))
    table.note("direct: clients hit shared disks themselves; the server "
               "serves 0 data bytes and is transaction-bound.")
    return table


# ---------------------------------------------------------------------------
# E2 — Fig. 2 / §2: the two-network problem
# ---------------------------------------------------------------------------

@experiment("e2")
def experiment_e2_two_network(seed: int = 0, horizon: float = 150.0) -> Table:
    """A control-network partition leaves the disk in everyone's view yet
    makes views asymmetric; without a safety protocol the locked file is
    unavailable forever, with leases it frees after ≈ detection + τ(1+ε)."""
    table = Table(
        "E2  Two-network partition (Fig. 2, §2)",
        ["protocol", "partition_t", "asym_views", "handover_t",
         "window_s", "dirty_flushed", "recovered"])
    for protocol in ("no_protocol", "storage_tank"):
        cfg = SystemConfig(n_clients=2, seed=seed, protocol=protocol)
        system = build_system(cfg)
        log = ScenarioLog()
        system.spawn(holder_with_dirty_data(system, "c1", "/shared/f", log))
        partition_at = 5.0

        def cut(system=system, log=log) -> Generator:
            yield system.sim.timeout(partition_at)
            system.ctrl_partitions.isolate("c1")
            views = system.network_views()
            log.set("asym", not views["symmetric"])
            log.set("witnesses", len(asymmetric_witnesses(views["views"])))
        system.spawn(cut())
        system.spawn(contender_takes_over(system, "c2", "/shared/f", log,
                                          start_at=8.0, horizon=horizon,
                                          write_after=False))
        system.run(until=horizon)

        file_id = log.get("file_id")
        avail = unavailability_after(system, file_id, "c1", partition_at)
        tag = log.get("holder_tag")
        on_disk = any(ev.tag == tag for d in system.disks.values()
                      for ev in d.history if ev.op == "write")
        table.add_row(protocol, partition_at,
                      f"yes ({log.get('witnesses')} pairs)" if log.get("asym") else "no",
                      round(avail.recovered_at, 2) if avail.recovered else "never",
                      round(avail.window, 2) if avail.recovered else f">{horizon - partition_at:.0f}",
                      "yes" if on_disk else "no",
                      "yes" if avail.recovered else "no")
    contract = LeaseConfig().contract()
    table.note(f"lease bound: detection + tau(1+eps) = "
               f"~4 + {contract.server_wait_local():.1f}s")
    table.note("no_protocol: the file never becomes available "
               "(paper: 'unavailable indefinitely').")
    return table


# ---------------------------------------------------------------------------
# E3 — §2.1: fencing alone is inadequate
# ---------------------------------------------------------------------------

@experiment("e3")
def experiment_e3_fencing_inadequacy(seed: int = 0, horizon: float = 130.0,
                                     ) -> Table:
    """Fence-then-steal strands dirty data and serves stale cache; naive
    steal corrupts; the lease protocol does neither."""
    table = Table(
        "E3  Recovery-policy safety (§2.1): fencing-only vs naive steal vs leases",
        ["protocol", "takeover_t", "silent_lost", "stranded_rep",
         "stale_reads", "unsync_writes", "holder_errors", "safe"])
    for protocol in ("fencing_only", "naive_steal", "storage_tank"):
        cfg = SystemConfig(n_clients=2, seed=seed, protocol=protocol,
                           writeback_interval=1000.0)
        system = build_system(cfg)
        log = ScenarioLog()
        system.spawn(holder_with_dirty_data(system, "c1", "/shared/f", log))

        def cut(system=system) -> Generator:
            yield system.sim.timeout(5.0)
            system.ctrl_partitions.isolate("c1")
        system.spawn(cut())
        # Reader touches both blocks: block 1 is written once at setup, so
        # a fenced holder keeps serving it stale after the contender's
        # overwrite.  Writer stops early enough that every lost tag gets a
        # write-back attempt (and hence an error report) before the end.
        system.spawn(cache_reader_loop(system, "c1", log, interval=1.0,
                                       horizon=horizon,
                                       nbytes=2 * BLOCK_SIZE))
        system.spawn(writer_loop(system, "c1", log, interval=2.0,
                                 horizon=60.0))
        system.spawn(fsync_loop(system, "c1", log, interval=7.0,
                                horizon=80.0))
        system.spawn(contender_takes_over(system, "c2", "/shared/f", log,
                                          start_at=8.0, horizon=horizon))
        system.run(until=horizon)

        report = ConsistencyAuditor(system).audit()
        s = report.summary()
        table.add_row(protocol,
                      round(log.get("takeover_at", float("nan")), 1),
                      s["lost_updates_silent"], s["stranded_reported"],
                      s["stale_reads"], s["unsynchronized_writes"],
                      system.client("c1").app_errors,
                      "YES" if report.safe else "NO")
    table.note("fencing_only: dirty data stranded + fenced client serves "
               "stale cache (paper §2.1).")
    table.note("naive_steal: old and new holders write concurrently — "
               "unsynchronized writes (paper §1.2).")
    return table


# ---------------------------------------------------------------------------
# E4 — Fig. 3 / Theorem 3.1: renewal-ordering safety
# ---------------------------------------------------------------------------

@experiment("e4")
def experiment_e4_theorem31(seed: int = 0, trials: int = 2000) -> Table:
    """Monte-Carlo over clock rates/offsets and message timings: the
    paper's renew-at-initiation rule never lets a steal precede client
    expiry; the tempting renew-at-ACK-receipt variant does."""
    table = Table(
        "E4  Theorem 3.1 ordering (Fig. 3): renew at t_C1 vs (unsafe) t_C2",
        ["epsilon", "trials", "viol_paper_rule", "viol_ack_rule",
         "min_margin_paper_s"])
    rng = np.random.default_rng(seed)
    for epsilon in (0.0, 0.01, 0.05, 0.1, 0.2):
        contract = LeaseContract(tau=30.0, epsilon=epsilon)
        lo, hi = 1.0 / np.sqrt(1 + epsilon), np.sqrt(1 + epsilon)
        viol_paper = viol_ack = 0
        min_margin = float("inf")
        for _ in range(trials):
            c_clock = LocalClock("c", rate=float(rng.uniform(lo, hi)),
                                 offset=float(rng.uniform(-100, 100)))
            s_clock = LocalClock("s", rate=float(rng.uniform(lo, hi)),
                                 offset=float(rng.uniform(-100, 100)))
            t_send = float(rng.uniform(0, 1000))
            t_ack_srv = t_send + float(rng.uniform(0.0001, 5.0))
            ok, margin = verify_theorem_3_1(contract, c_clock, s_clock,
                                            t_send, t_ack_srv)
            min_margin = min(min_margin, margin)
            if not ok:
                viol_paper += 1
            # Ablation: lease measured from ACK receipt at the client
            # (t_C2 > t_S2) — no longer ordered before the server timer.
            t_c2 = t_ack_srv + float(rng.uniform(0.0001, 5.0))
            expiry_local = (c_clock.local_time(t_c2) + contract.tau)
            expiry_global = c_clock.global_time(expiry_local)
            steal_global = s_clock.global_time(
                s_clock.local_time(t_ack_srv) + contract.server_wait_local())
            if steal_global < expiry_global:
                viol_ack += 1
        table.add_row(epsilon, trials, viol_paper, viol_ack,
                      round(min_margin, 4))
    table.note("viol_paper_rule must be 0 for every epsilon (Theorem 3.1).")
    return table


# ---------------------------------------------------------------------------
# E5 — Fig. 4 / §3.2: the four phases of the lease period
# ---------------------------------------------------------------------------

@experiment("e5")
def experiment_e5_lease_phases(seed: int = 0) -> Table:
    """Active clients live in phase 1; idle clients keep their cache with
    cheap keep-alives; partitioned clients walk phases 2→3→4, drain
    in-flight work, flush every dirty page and only then expire."""
    table = Table(
        "E5  Lease phases (Fig. 4, §3.2)",
        ["scenario", "pct_phase1", "pct_phase2", "pct_phase34",
         "keepalives", "dirty_at_expiry", "ops_rejected", "expired"])

    def run_one(scenario: str) -> List[Any]:
        cfg = SystemConfig(n_clients=2, seed=seed, protocol="storage_tank",
                           writeback_interval=1000.0)
        system = build_system(cfg)
        c1 = system.client("c1")
        log = ScenarioLog()
        horizon = 90.0
        system.spawn(holder_with_dirty_data(system, "c1", "/f", log))
        if scenario == "active":
            # An active client exchanges metadata/lock messages far more
            # often than the lease interval (§3.1) — every ACK renews.
            def busy() -> Generator:
                while system.sim.now < horizon:
                    yield system.sim.timeout(0.5)
                    try:
                        yield from c1.getattr("/f")
                    except APP_ERRORS:
                        pass
            system.spawn(busy())
        elif scenario == "partitioned":
            def cut() -> Generator:
                yield system.sim.timeout(10.0)
                system.ctrl_partitions.isolate("c1")
            system.spawn(cut())
            system.spawn(cache_reader_loop(system, "c1", log, interval=0.5,
                                           horizon=horizon))
            # Another client creates the demand that makes the server
            # notice the failure.
            system.spawn(contender_takes_over(system, "c2", "/f", log,
                                              start_at=12.0, horizon=horizon,
                                              write_after=False))
        # idle: nothing after setup — keep-alives must preserve the lease
        system.run(until=horizon)

        lease = c1.lease
        assert lease is not None
        lease.finalize_accounting()
        total = sum(lease.phase_time.values()) or 1.0
        pct = {p: 100.0 * lease.phase_time[p] / total for p in LeasePhase}
        dirty_left = len(c1.cache.dirty_pages())
        return [scenario, round(pct[LeasePhase.VALID], 1),
                round(pct[LeasePhase.RENEWAL], 1),
                round(pct[LeasePhase.SUSPECT] + pct[LeasePhase.FLUSH], 1),
                c1.keepalives_sent,
                dirty_left if scenario != "partitioned" else len(c1.cache.dirty_pages()),
                c1.ops_rejected, lease.expirations]

    for scenario in ("active", "idle", "partitioned"):
        table.add_row(*run_one(scenario))
    table.note("active: ~100% phase 1 with zero keep-alives (opportunistic "
               "renewal, §3.1).")
    table.note("partitioned: quiesce + flush completes before expiry — "
               "dirty_at_expiry is 0.")
    return table


# ---------------------------------------------------------------------------
# E6 — Fig. 5 / §3.3: NACKs for inconsistent clients
# ---------------------------------------------------------------------------

@experiment("e6")
def experiment_e6_nack(seed: int = 0) -> Table:
    """After a transient partition, a NACK tells the client immediately
    that its cache is invalid; silently ignoring it burns messages until
    the lease dies of old age."""
    table = Table(
        "E6  NACK for inconsistent clients (Fig. 5, §3.3)",
        ["variant", "heal_t", "c1_msgs_after_heal", "learned_at",
         "learn_delay_s", "nacks_seen"])
    for nack_enabled in (True, False):
        cfg = SystemConfig(n_clients=2, seed=seed, protocol="storage_tank")
        system = build_system(cfg)
        system.server.authority.nack_suspects = nack_enabled
        c1 = system.client("c1")
        log = ScenarioLog()
        heal_at = 12.0
        horizon = 90.0
        system.spawn(holder_with_dirty_data(system, "c1", "/f", log))

        def cut() -> Generator:
            yield system.sim.timeout(5.0)
            system.ctrl_partitions.isolate("c1")
            yield system.sim.timeout(heal_at - 5.0)
            system.ctrl_partitions.heal()
        system.spawn(cut())
        # The server must notice c1 missed a message: c2 demands the lock.
        system.spawn(contender_takes_over(system, "c2", "/f", log,
                                          start_at=6.0, horizon=horizon,
                                          write_after=False))

        # c1 keeps issuing requests after the heal, unaware it missed one.
        def chatty() -> Generator:
            while system.sim.now < horizon:
                yield system.sim.timeout(1.0)
                if system.sim.now < heal_at:
                    continue
                if not c1.lease.active or not c1.lease.phase().serves_new_requests:
                    log.set("learned_at", system.sim.now)
                    return
                try:
                    yield from c1.getattr("/f")
                except APP_ERRORS:
                    pass
        system.spawn(chatty())
        system.run(until=horizon)

        sends = [r for r in system.trace.select(kind="msg.send", node="c1")
                 if r.time >= heal_at
                 and r.get("msg_kind") not in ("transport.ack",)]
        learned = log.get("learned_at")
        table.add_row("NACK (paper)" if nack_enabled else "silent ignore",
                      heal_at, len(sends),
                      round(learned, 2) if learned else "never",
                      round(learned - heal_at, 2) if learned else "-",
                      c1.lease.nacks_seen if c1.lease else 0)
    table.note("NACK: one round-trip after the heal and the client knows; "
               "silent: retries pile up until local lease expiry.")
    return table


# ---------------------------------------------------------------------------
# E7 — §3/§3.1/§7: zero overhead during normal operation
# ---------------------------------------------------------------------------

@experiment("e7")
def experiment_e7_overhead(seed: int = 0, duration: float = 120.0) -> Table:
    """The headline claim: with no failures, Storage Tank leasing costs
    zero messages, zero server memory, zero server computation — compared
    against protocols that pay per message, per client or per object."""
    table = Table(
        "E7  Failure-free protocol overhead (§3, §3.1, §7)",
        ["protocol", "activity", "client_lease_msgs", "server_lease_msgs",
         "server_lease_cpu", "state_bytes", "ops_done"])
    for protocol in ("storage_tank", "frangipani", "vleases", "nfs"):
        for activity, think in (("active", 0.1), ("idle", None)):
            cfg = SystemConfig(
                n_clients=2, seed=seed, protocol=protocol,
                workload=WorkloadConfig(n_files=8, think_time=think or 0.1,
                                        read_fraction=0.7))
            system = build_system(cfg)
            if think is None:
                # Open files once, then idle: caches and locks must survive.
                log = ScenarioLog()
                system.spawn(holder_with_dirty_data(system, "c1", "/f", log))
                system.run(until=duration)
                ops = sum(c.ops_completed for c in system.pool.iter_active())
            else:
                stats = run_workload(system, duration)
                ops = sum(s.ops_succeeded for s in stats.values())
            over = collect_overheads(system)
            # Count client lease traffic strictly inside the measured
            # window: a driver overrunning its deadline leaves a short
            # idle tail whose (correct) keep-alives are not "active"
            # operation.
            client_msgs = sum(
                1 for r in system.trace.select(kind="msg.send")
                if r.time <= duration
                and r.get("msg_kind") in ("lease.keepalive", "lease.renew",
                                          "lease.heartbeat"))
            client_msgs += sum(1 for r in system.trace.select(kind="nfs.poll")
                               if r.time <= duration)
            table.add_row(protocol, activity, client_msgs,
                          int(over["lease_msgs_server"]),
                          int(over["lease_cpu_server"]),
                          int(over["state_bytes_now"]), ops)
    table.note("storage_tank/active: all three server columns are exactly 0 "
               "(passive authority + opportunistic renewal).")
    return table


# ---------------------------------------------------------------------------
# E8 — §4: per-object V leases vs one lease per client
# ---------------------------------------------------------------------------

@experiment("e8")
def experiment_e8_vlease_scaling(seed: int = 0, duration: float = 60.0,
                                 object_counts: Tuple[int, ...] = (1, 5, 20, 100),
                                 ) -> Table:
    """Renewal traffic: O(objects) for V leases vs O(1) for Storage Tank."""
    table = Table(
        "E8  Renewal message scaling in cached objects (§4)",
        ["objects_cached", "storage_tank_msgs", "vlease_msgs", "ratio",
         "st_state_B", "vl_state_B"])
    for m in object_counts:
        results: Dict[str, Tuple[int, int]] = {}
        for protocol in ("storage_tank", "vleases"):
            cfg = SystemConfig(n_clients=1, seed=seed, protocol=protocol,
                               workload=WorkloadConfig(n_files=m))
            system = build_system(cfg)
            client = system.client("c1")

            def open_all() -> Generator:
                for i in range(m):
                    path = f"/d/f{i:04d}"
                    yield from client.create(path, size=BLOCK_SIZE)
                    fd = yield from client.open_file(path, "w")
                    yield from client.write(fd, 0, 16)
            boot = system.spawn(open_all())
            system.sim.run_until_event(boot, hard_limit=600)
            start_msgs = _lease_msg_count(system)
            system.run(until=system.sim.now + duration)
            msgs = _lease_msg_count(system) - start_msgs
            results[protocol] = (msgs, system.server.authority.state_bytes())
        st, vl = results["storage_tank"], results["vleases"]
        table.add_row(m, st[0], vl[0],
                      round(vl[0] / max(st[0], 1), 1), st[1], vl[1])
    table.note("storage_tank renews one lease per server regardless of "
               "cached objects; V leases renew each object (§4).")
    return table


def _sent_kind(system: StorageTankSystem, kind: str) -> int:
    return sum(1 for r in system.trace.select(kind="msg.send")
               if r.get("msg_kind") == kind)


def _lease_msg_count(system: StorageTankSystem) -> int:
    """Client-initiated lease-maintenance transmissions so far."""
    return (_sent_kind(system, "lease.keepalive")
            + _sent_kind(system, "lease.renew")
            + _sent_kind(system, "lease.heartbeat")
            + _sent_kind(system, "nfs.poll"))


# ---------------------------------------------------------------------------
# E9 — §5: protocol comparison across client counts
# ---------------------------------------------------------------------------

@experiment("e9")
def experiment_e9_protocol_comparison(seed: int = 0, duration: float = 60.0,
                                      client_counts: Tuple[int, ...] = (2, 4, 8),
                                      ) -> List[Table]:
    """Two tables: (a) coherence traffic, server lease memory and safety
    for every protocol as the installation grows; (b) the
    availability-vs-safety scoreboard under one contended partition."""
    table = Table(
        "E9  Protocol comparison under shared workload (§5)",
        ["protocol", "clients", "lease_msgs", "lease_msgs_per_s",
         "state_bytes", "lease_cpu", "stale_reads", "coherent"])
    for protocol in ("storage_tank", "frangipani", "vleases", "nfs"):
        for n in client_counts:
            cfg = SystemConfig(
                n_clients=n, seed=seed, protocol=protocol,
                workload=WorkloadConfig(n_files=10, think_time=0.3,
                                        read_fraction=0.7, zipf_s=0.8))
            system = build_system(cfg)
            stats = run_workload(system, duration)
            over = collect_overheads(system)
            report = ConsistencyAuditor(system).audit()
            lease_msgs = int(over["lease_msgs_client"]
                             + over["lease_msgs_server"])
            table.add_row(protocol, n, lease_msgs,
                          round(lease_msgs / duration, 2),
                          int(over["state_bytes_now"]),
                          int(over["lease_cpu_server"]),
                          len(report.stale_reads),
                          "yes" if not report.stale_reads else "NO")
    table.note("nfs is expected incoherent (stale reads > 0 possible); "
               "storage_tank pays ~0 messages and 0 state.")
    return [table, _e9b_availability_scoreboard(seed)]


def _e9b_availability_scoreboard(seed: int = 0, horizon: float = 130.0) -> Table:
    """One contended partition, every recovery policy: who gets the data
    back, how fast, and at what safety cost (§1.2, §2.1, §5)."""
    table = Table(
        "E9b  Availability vs safety under one contended partition (§5)",
        ["protocol", "window_s", "stale_reads", "lost", "multi_writer",
         "verdict"])
    for protocol in ("storage_tank", "no_protocol", "naive_steal",
                     "fencing_only", "frangipani", "vleases", "nfs"):
        cfg = SystemConfig(n_clients=2, seed=seed, protocol=protocol,
                           writeback_interval=1000.0)
        system = build_system(cfg)
        log = ScenarioLog()
        system.spawn(holder_with_dirty_data(system, "c1", "/f", log))

        def cut(system=system) -> Generator:
            yield system.sim.timeout(5.0)
            system.ctrl_partitions.isolate("c1")
        system.spawn(cut())
        system.spawn(cache_reader_loop(system, "c1", log, interval=2.0,
                                       horizon=60.0, nbytes=2 * BLOCK_SIZE))
        system.spawn(writer_loop(system, "c1", log, interval=3.0,
                                 horizon=50.0))
        system.spawn(fsync_loop(system, "c1", log, interval=8.0,
                                horizon=70.0))
        system.spawn(contender_takes_over(system, "c2", "/f", log,
                                          start_at=8.0, horizon=horizon))
        system.run(until=horizon)
        report = ConsistencyAuditor(system).audit()
        takeover = log.get("takeover_at")
        table.add_row(
            protocol,
            round(takeover - 5.0, 1) if takeover else "never",
            len(report.stale_reads),
            len(report.lost_updates) + len(report.stranded_reported),
            len(report.unsynchronized_writes),
            "SAFE" if report.safe else "UNSAFE")
    table.note("storage_tank is the only policy that recovers the data "
               "AND stays safe; the fast ones corrupt or strand, the safe "
               "alternatives pay standing overhead (table E9a).")
    return table


# ---------------------------------------------------------------------------
# E10 — §6: slow computers, fencing backstop, and GFS dlocks
# ---------------------------------------------------------------------------

@experiment("e10")
def experiment_e10_slow_client(seed: int = 0, horizon: float = 170.0) -> List[Table]:
    """A client whose clock violates the rate bound flushes *after* its
    locks were stolen.  The fence constructed at steal time blocks the
    late writes; without it the file system corrupts (paper §6)."""
    table = Table(
        "E10  Slow computer vs the fencing backstop (§6)",
        ["variant", "steal_t", "late_flush_denied", "unsync_writes",
         "contender_data_intact", "safe"])
    for fence in (True, False):
        cfg = SystemConfig(n_clients=2, seed=seed, protocol="storage_tank",
                           fence_on_steal=fence, slow_clients=("c1",),
                           writeback_interval=1000.0)
        system = build_system(cfg)
        log = ScenarioLog()
        system.spawn(holder_with_dirty_data(system, "c1", "/f", log))

        def cut() -> Generator:
            yield system.sim.timeout(5.0)
            system.ctrl_partitions.isolate("c1")
        system.spawn(cut())
        system.spawn(contender_takes_over(system, "c2", "/f", log,
                                          start_at=8.0, horizon=horizon))
        system.run(until=horizon)

        report = ConsistencyAuditor(system).audit()
        steals = [g.time for g in system.server.locks.history
                  if g.op == "steal" and g.client == "c1"]
        denied = sum(d.denied for d in system.disks.values())
        # Did the contender's data survive on disk?
        c2_tag = log.get("contender_tag")
        intact = c2_tag is not None and all(
            system.disks[dev].peek(lba).tag == c2_tag
            for dev, lba in _file_blocks(system, log.get("file_id")))
        table.add_row("lease+fence" if fence else "lease only (no fence)",
                      round(steals[0], 1) if steals else "-", denied,
                      len(report.unsynchronized_writes),
                      "yes" if intact else "NO",
                      "YES" if report.safe and intact else "NO")
    table.note("The slow client's phase-4 flush arrives after the steal; "
               "only the fence stops it (paper §6).")

    dlock_table = _e10_dlock_comparison(seed)
    return [table, dlock_table]


def _file_blocks(system: StorageTankSystem, file_id: int,
                 ) -> List[Tuple[str, int]]:
    ino = system.server.metadata.inode(file_id)
    return list(ino.extents.iter_physical())


def _e10_dlock_comparison(seed: int = 0) -> Table:
    """GFS-style dlocks: a crashed holder's range frees itself after the
    device-enforced TTL (§5) — availability bounded by the TTL, but the
    locking is physical and uncached."""
    table = Table(
        "E10b  GFS dlock baseline (§5): availability after holder failure",
        ["dlock_ttl_s", "holder_dies_t", "takeover_t", "window_s"])
    for ttl in (5.0, 15.0, 30.0):
        sim = Simulator()
        streams = RandomStreams(seed)
        san = SanFabric(sim, streams)
        disk = VirtualDisk("disk1", 4096)
        san.attach_device(disk)
        clocks = ClockEnsemble(0.0, streams)
        d1 = DlockClient(sim, san, "d1", "disk1", clocks.create("d1"),
                         dlock_ttl=ttl)
        d2 = DlockClient(sim, san, "d2", "disk1", clocks.create("d2"),
                         dlock_ttl=ttl,
                         max_retries=int(ttl / 0.2 * 3) + 20)
        log: Dict[str, float] = {}

        def holder() -> Generator:
            # Acquire the range and "die" without releasing (crash).
            yield from san.dlock_acquire("d1", "disk1", 0, 8, ttl, sim.now)
            log["died"] = sim.now
        sim.process(holder())

        def contender() -> Generator:
            yield sim.timeout(1.0)
            tag = yield from d2.write_range(0, 8)
            if tag is not None:
                log["takeover"] = sim.now
        sim.process(contender())
        sim.run(until=ttl * 3 + 20)
        died, took = log.get("died", 0.0), log.get("takeover")
        table.add_row(ttl, round(died, 2),
                      round(took, 2) if took else "never",
                      round(took - died, 2) if took else "-")
    table.note("window tracks the TTL: the drive, not a server, frees the "
               "lock — physical, uncached locking (§5).")
    return table


# ---------------------------------------------------------------------------
# E11 — repro.cluster: availability under metadata-server failure
# ---------------------------------------------------------------------------

@experiment("e11")
def experiment_e11_cluster_takeover(seed: int = 0, horizon: float = 140.0,
                                    n_servers: int = 3) -> Table:
    """Kill one server of a metadata cluster and watch its shard move.

    A client (c1) works against a file whose slot lives on the victim
    server.  The victim crashes; the coordinator detects the death,
    reassigns the slot to a survivor, and pushes the new map.  The
    experiment measures when the shard's *metadata operations* resume at
    the takeover server, when a displaced client's lock is successfully
    reasserted there, and when a *contender* (c2) is first granted a
    conflicting lock — which must not happen while the displaced
    client's lease could still be valid (crash + tau*sqrt(1+eps) on the
    global clock, Theorem 3.1).  The victim then restarts and the shard
    fails back.  The consistency audit must be clean throughout.
    """
    from repro.core.config import ClusterConfig
    from repro.fault.scenarios import server_crash

    lease = LeaseConfig()
    cluster = ClusterConfig(ping_interval=0.5, ping_timeout=0.25,
                            ping_retries=2, map_lease=1.0,
                            takeover_grace=2.0)
    cfg = SystemConfig(n_clients=2, n_servers=n_servers, seed=seed,
                       protocol="storage_tank", lease=lease, cluster=cluster,
                       writeback_interval=3.0)
    system = build_system(cfg)
    victim = "server2"
    crash_at, restart_at = 10.0, 80.0

    # A path that hashes onto the victim's shard.
    path = next(f"/shard/f{i}" for i in range(1000)
                if system.coordinator.map.owner_of_path(f"/shard/f{i}")
                == victim)
    log = ScenarioLog()

    def holder() -> Generator:
        c1 = system.client("c1")
        fid = yield from c1.create(path, size=4 * BLOCK_SIZE)
        log.set("file_id", fid)
        fd = yield from c1.open_file(path, "w")
        tag = yield from c1.write(fd, 0, BLOCK_SIZE)
        log.set("holder_tag", tag)
        yield from c1.flush(fd)
    system.spawn(holder())

    def probe() -> Generator:
        # Metadata availability on the victim's shard, sampled at 0.5s.
        c1 = system.client("c1")
        yield system.sim.timeout(crash_at)
        while system.sim.now < horizon - 1.0:
            try:
                yield from c1.getattr(path)
            except APP_ERRORS:
                yield system.sim.timeout(0.5)
                continue
            owner = c1.server_for_path(path)
            if log.get("meta_resume_t") is None:
                log.set("meta_resume_t", system.sim.now)
                log.set("meta_resume_server", owner)
            if (system.sim.now > restart_at
                    and owner == victim
                    and log.get("failback_resume_t") is None):
                log.set("failback_resume_t", system.sim.now)
                return
            yield system.sim.timeout(0.5)
    system.spawn(probe())

    def contender() -> Generator:
        # A different client wants the displaced file exclusively: its
        # grant must wait out the displaced lease horizon.
        c2 = system.client("c2")
        yield system.sim.timeout(crash_at + 5.0)
        while system.sim.now < horizon - 1.0:
            try:
                fd = yield from c2.open_file(path, "w")
            except APP_ERRORS:
                yield system.sim.timeout(1.0)
                continue
            log.set("contender_grant_t", system.sim.now)
            tag = yield from c2.write(fd, 0, BLOCK_SIZE)
            log.set("contender_tag", tag)
            yield from c2.flush(fd)
            return
    system.spawn(contender())

    server_crash(system, server=victim, at=crash_at,
                 restart_at=restart_at).start()
    system.run(until=horizon)

    report = ConsistencyAuditor(system).audit()
    fid = log.get("file_id")
    dead_events = system.trace.select(kind="cluster.server_dead")
    detect_t = dead_events[0].time if dead_events else float("nan")
    reasserts = [r for r in system.trace.select(kind="client.reasserted",
                                                node="c1")
                 if r.detail.get("file_id") == fid and r.time > crash_at]
    reassert_t = reasserts[0].time if reasserts else None

    # Safety: no grant to a *different* client on the displaced file
    # while the displaced client's lease could still be valid.
    lease_horizon = crash_at + lease.tau * math.sqrt(1.0 + lease.epsilon)
    overlaps = 0
    for srv in system.servers.values():
        for g in srv.locks.history:
            if (g.op == "grant" and g.obj == fid and g.client != "c1"
                    and crash_at < g.time < lease_horizon):
                overlaps += 1

    # Availability bound: detection + the takeover wait (tau plus the
    # old owner's map-lease silencing margin, clock-rate inflated) +
    # the reassertion grace window.
    skew = math.sqrt(1.0 + lease.epsilon)
    bound = ((lease.tau + cluster.map_lease) * (1.0 + lease.epsilon) * skew
             + cluster.takeover_grace)
    meta_t = log.get("meta_resume_t")
    grant_t = log.get("contender_grant_t")
    within = (meta_t is not None and grant_t is not None
              and grant_t - detect_t <= bound)

    table = Table(
        "E11  Cluster takeover: availability under server failure "
        "(repro.cluster)",
        ["event", "t", "detail"])
    table.add_row("crash", crash_at, f"{victim} (shard of {path})")
    table.add_row("detected", round(detect_t, 2),
                  f"coordinator ping loss; final map epoch "
                  f"{system.coordinator.map.epoch}")
    table.add_row("meta ops resume", round(meta_t, 2) if meta_t else "never",
                  f"at {log.get('meta_resume_server')}")
    table.add_row("lock reasserted", round(reassert_t, 2)
                  if reassert_t else "never",
                  "displaced holder re-claims at new owner")
    table.add_row("contender granted", round(grant_t, 2)
                  if grant_t else "never",
                  f">= lease horizon {round(lease_horizon, 2)}: "
                  f"{'yes' if grant_t and grant_t >= lease_horizon else 'NO'}")
    table.add_row("restart", restart_at, f"{victim} returns")
    table.add_row("failback", round(log.get("failback_resume_t", 0.0), 2)
                  if log.get("failback_resume_t") else "never",
                  f"shard served by {victim} again "
                  f"(failbacks={system.coordinator.failbacks})")
    table.add_row("verdict", "-",
                  f"overlap_grants={overlaps} "
                  f"within_bound={'yes' if within else 'NO'} "
                  f"audit_safe={'YES' if report.safe else 'NO'}")
    table.note(f"takeover wait bound: detect + (tau + map_lease)(1+eps)"
               f"*sqrt(1+eps) + grace = {round(bound, 2)}s after detection")
    table.note("safety: zero lock grants may overlap the displaced "
               "client's lease horizon crash + tau*sqrt(1+eps) "
               f"= {round(lease_horizon, 2)}s")
    return table


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: Legacy dispatch dict — a view over :mod:`repro.harness.registry`;
#: prefer the registry directly.  Kept one release for compatibility.
EXPERIMENTS: Dict[str, Callable[..., Any]] = _registry_view(
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11")
