"""Ablations over the protocol's design choices (DESIGN.md §6).

These go beyond the paper's figures: each sweeps one design parameter
or removes one correctness rule and measures what breaks or what it
costs — the engineering questions a Storage Tank implementor would ask.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.analysis.consistency import ConsistencyAuditor
from repro.analysis.availability import unavailability_after
from repro.analysis.report import Table
from repro.core.config import (
    LeaseConfig,
    NetworkConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.core.system import build_system
from repro.harness.common import ScenarioLog, contender_takes_over, holder_with_dirty_data
from repro.harness.registry import experiment
from repro.locks.manager import CACHED
from repro.net.control import RetryPolicy
from repro.storage.blockmap import BLOCK_SIZE


# ---------------------------------------------------------------------------
# A1 — the τ/ε trade: recovery latency vs idle keep-alive traffic
# ---------------------------------------------------------------------------

@experiment("a1")
def ablation_a1_tau_sweep(seed: int = 0,
                          taus: Tuple[float, ...] = (5.0, 15.0, 30.0, 60.0),
                          epsilons: Tuple[float, ...] = (0.0, 0.05, 0.2),
                          ) -> Table:
    """Unavailability after a partition is ≈ detection + τ(1+ε); idle
    keep-alive traffic is ∝ 1/τ.  Pick τ by which you mind more."""
    table = Table(
        "A1  Lease period trade-off: recovery latency vs idle traffic",
        ["tau", "epsilon", "window_s", "bound_s", "idle_keepalives_per_min"])
    for tau in taus:
        for epsilon in epsilons:
            cfg = SystemConfig(n_clients=2, seed=seed,
                               lease=LeaseConfig(tau=tau, epsilon=epsilon),
                               writeback_interval=1000.0)
            system = build_system(cfg)
            log = ScenarioLog()
            system.spawn(holder_with_dirty_data(system, "c1", "/f", log))

            def cut(system=system) -> Generator:
                yield system.sim.timeout(5.0)
                system.control_net.isolate("c1")
            system.spawn(cut())
            horizon = 20.0 + 3 * tau * (1 + epsilon)
            system.spawn(contender_takes_over(system, "c2", "/f", log,
                                              start_at=7.0, horizon=horizon,
                                              write_after=False))
            system.run(until=horizon)
            avail = unavailability_after(system, log.get("file_id"), "c1", 5.0)

            # Idle keep-alive rate, measured separately without faults.
            idle_cfg = SystemConfig(n_clients=1, seed=seed,
                                    lease=LeaseConfig(tau=tau, epsilon=epsilon))
            idle = build_system(idle_cfg)
            ilog = ScenarioLog()
            idle.spawn(holder_with_dirty_data(idle, "c1", "/f", ilog))
            idle.run(until=120.0)
            ka_per_min = idle.client("c1").keepalives_sent / 2.0

            bound = 4.0 + tau * (1 + epsilon)
            table.add_row(tau, epsilon,
                          round(avail.window, 1) if avail.recovered else "never",
                          round(bound, 1), round(ka_per_min, 1))
    table.note("window tracks the tau(1+eps) bound; idle traffic shrinks "
               "as tau grows — the paper's availability-vs-cost dial.")
    return table


# ---------------------------------------------------------------------------
# A2 — phase boundaries: how late can the flush start?
# ---------------------------------------------------------------------------

@experiment("a2")
def ablation_a2_phase_boundaries(seed: int = 0,
                                 flush_fracs: Tuple[float, ...] = (0.6, 0.75, 0.9, 0.98),
                                 dirty_blocks: int = 400,
                                 ) -> Table:
    """Phase 4 must be wide enough to harden the dirty cache before the
    lease dies.  A late flush boundary loses (reported) data on slow
    SANs; an early one shortens useful service during outages."""
    table = Table(
        "A2  Flush-boundary sweep: phase-4 width vs data survival",
        ["flush_frac", "flush_window_s", "dirty_pages", "flushed_in_time",
         "lost_reported", "service_pct_of_tau"])
    for frac in flush_fracs:
        suspect = min(0.75, frac - 0.05)
        renewal = min(0.5, suspect - 0.05)
        cfg = SystemConfig(
            n_clients=1, seed=seed,
            lease=LeaseConfig(tau=30.0, renewal_frac=renewal,
                              suspect_frac=suspect, flush_frac=frac),
            writeback_interval=1000.0,
            network=NetworkConfig(san_base_latency=0.002,
                                  san_per_block_latency=0.005))
        system = build_system(cfg)
        c1 = system.client("c1")

        def setup(system=system, c1=c1) -> Generator:
            yield from c1.create("/big", size=dirty_blocks * BLOCK_SIZE)
            fd = yield from c1.open_file("/big", "w")
            yield from c1.write(fd, 0, dirty_blocks * BLOCK_SIZE)
        boot = system.spawn(setup())
        system.sim.run_until_event(boot, hard_limit=300.0)
        system.control_net.isolate("c1")
        system.run(until=system.sim.now + 90.0)

        expire_times = [r.time for r in system.trace.select(kind="lease.expire")]
        expiry = min(expire_times) if expire_times else float("inf")
        flushed = sum(1 for r in system.trace.select(kind="cache.flushed")
                      if r.time <= expiry)
        lost = sum(1 for r in system.trace.select(kind="app.error")
                   if r.get("reason") == "lease_expired")
        table.add_row(frac, round((1 - frac) * 30.0, 1), dirty_blocks,
                      flushed, lost, round(suspect * 100.0, 0))
    table.note("a too-late flush boundary strands data (reported, not "
               "silent — but lost); the default 0.9 leaves ~3s of margin.")
    return table


# ---------------------------------------------------------------------------
# A3 — failure-detection policy: retries vs recovery latency
# ---------------------------------------------------------------------------

@experiment("a3")
def ablation_a3_detection(seed: int = 0,
                          policies: Tuple[Tuple[float, int], ...] = (
                              (0.5, 1), (1.0, 3), (2.0, 5)),
                          ) -> Table:
    """Unavailability = detection + τ(1+ε): the detection component is
    the demand-retry policy, the only part the server controls."""
    table = Table(
        "A3  Detection policy: demand retries vs total unavailability",
        ["timeout_s", "retries", "detection_budget_s", "window_s"])
    for timeout, retries in policies:
        cfg = SystemConfig(n_clients=2, seed=seed, writeback_interval=1000.0)
        system = build_system(cfg)
        # The server's endpoint default policy drives demand retries.
        system.server.endpoint.default_policy = RetryPolicy(
            timeout=timeout, retries=retries)
        log = ScenarioLog()
        system.spawn(holder_with_dirty_data(system, "c1", "/f", log))

        def cut(system=system) -> Generator:
            yield system.sim.timeout(5.0)
            system.control_net.isolate("c1")
        system.spawn(cut())
        system.spawn(contender_takes_over(system, "c2", "/f", log,
                                          start_at=6.0, horizon=150.0,
                                          write_after=False))
        system.run(until=150.0)
        avail = unavailability_after(system, log.get("file_id"), "c1", 5.0)
        table.add_row(timeout, retries, round(timeout * (retries + 1), 1),
                      round(avail.window, 1) if avail.recovered else "never")
    table.note("aggressive detection shaves seconds off recovery but "
               "risks false suspects on a lossy control network.")
    return table


# ---------------------------------------------------------------------------
# A4 — removing the no-ACK-while-expiring rule (§3.1) breaks safety
# ---------------------------------------------------------------------------

@experiment("a4")
def ablation_a4_ack_while_expiring(seed: int = 0) -> Table:
    """§3.1: "we require the server not to ACK messages if it has
    already started a counter to expire client locks."  Disable the rule
    and the client re-validates a lease the server is about to steal —
    a system-level Theorem 3.1 violation."""
    table = Table(
        "A4  The no-ACK-while-expiring rule (§3.1): keep vs ablate",
        ["variant", "steals", "client_active_at_steal", "stale_reads",
         "unsync_writes", "safe"])
    for ablate in (False, True):
        cfg = SystemConfig(n_clients=2, seed=seed, writeback_interval=1000.0)
        system = build_system(cfg)
        system.server.authority.ack_while_expiring = ablate
        c1 = system.client("c1")
        log = ScenarioLog()
        system.spawn(holder_with_dirty_data(system, "c1", "/f", log))

        def schedule(system=system) -> Generator:
            # Transient partition: long enough for the server to declare
            # c1 suspect, short enough that c1 can reach it again while
            # the timer runs.
            yield system.sim.timeout(5.0)
            system.control_net.isolate("c1")
            yield system.sim.timeout(10.0)
            system.control_net.heal_all()
        system.spawn(schedule())
        system.spawn(contender_takes_over(system, "c2", "/f", log,
                                          start_at=6.0, horizon=120.0))

        # After the heal, c1 keeps renewing (getattr) and reading cache.
        def chatty(system=system, c1=c1, log=log) -> Generator:
            while system.sim.now < 120.0:
                yield system.sim.timeout(1.0)
                try:
                    yield from c1.getattr("/f")
                    fd = log.get("fd")
                    if fd is not None:
                        yield from c1.read(fd, 0, BLOCK_SIZE)
                except Exception:
                    pass
        system.spawn(chatty())

        active_at_steal = False

        def watch(rec, c1=c1):
            nonlocal active_at_steal
            if rec.kind == "lease.steal" and c1.lease and c1.lease.active:
                active_at_steal = True
        system.trace.subscribe(watch)
        system.run(until=120.0)
        report = ConsistencyAuditor(system).audit()
        table.add_row("ablated (ACKs suspects)" if ablate else "paper rule",
                      sum(1 for g in system.server.locks.history
                          if g.op == "steal" and g.kind == CACHED),
                      "YES (violates Thm 3.1)" if active_at_steal else "no",
                      len(report.stale_reads),
                      len(report.unsynchronized_writes),
                      "NO" if (active_at_steal or not report.safe) else "YES")
    table.note("with the rule ablated, the client holds a 'valid' lease "
               "while its locks are stolen — the ordering proof collapses.")
    return table


# ---------------------------------------------------------------------------
# A5 — client scaling under device queueing: the disk, not the server,
#      is the direct-access model's throughput ceiling (§1.1)
# ---------------------------------------------------------------------------

@experiment("a5")
def ablation_a5_scalability(seed: int = 0, duration: float = 30.0,
                            client_counts: Tuple[int, ...] = (1, 2, 4, 8),
                            ) -> Table:
    """Each client streams synchronous writes to a private file on one
    shared disk.  With commands serialized at the device, aggregate
    SAN throughput saturates while the metadata server stays at a
    handful of transactions — 'transactions per second, not MB/s'."""
    table = Table(
        "A5  Client scaling with device queueing (§1.1)",
        ["clients", "san_MB", "san_MB_per_s", "queue_wait_s",
         "server_txn", "server_data_MB"])
    for n in client_counts:
        cfg = SystemConfig(
            n_clients=n, seed=seed, protocol="storage_tank",
            writeback_interval=1000.0,
            network=NetworkConfig(san_per_device_queueing=True,
                                  san_base_latency=0.004,
                                  san_per_block_latency=0.001))
        system = build_system(cfg)

        def stream(cname: str, system=system) -> Generator:
            client = system.client(cname)
            path = f"/priv/{cname}"
            yield from client.create(path, size=64 * BLOCK_SIZE)
            fd = yield from client.open_file(path, "w")
            deadline = system.sim.now + duration
            offset = 0
            while system.sim.now < deadline:
                yield from client.write(fd, offset % (64 * BLOCK_SIZE),
                                        8 * BLOCK_SIZE)
                yield from client.flush(fd)  # synchronous: hits the disk
                offset += 8 * BLOCK_SIZE
        procs = [system.spawn(stream(c)) for c in cfg.client_names()]
        for proc in procs:
            system.sim.run_until_event(proc, hard_limit=duration * 30 + 600)
        san_mb = (system.san.bytes_read + system.san.bytes_written) / 1e6
        table.add_row(n, round(san_mb, 2), round(san_mb / duration, 2),
                      round(system.san.queue_wait_total, 1),
                      system.server.transactions,
                      round(system.server.data_bytes_served / 1e6, 2))
    table.note("SAN MB/s saturates once the disk queue forms (queue_wait "
               "grows superlinearly); the server serves ~3 transactions "
               "per client regardless of data volume.")
    return table


# ---------------------------------------------------------------------------
# A6 — server-cluster scaling: spreading the namespace spreads the
#      transaction load (Fig. 1's server cluster)
# ---------------------------------------------------------------------------

@experiment("a6")
def ablation_a6_server_cluster(seed: int = 0, duration: float = 30.0,
                               server_counts: Tuple[int, ...] = (1, 2, 4),
                               ) -> Table:
    """Sharding the namespace across servers divides the per-server
    transaction load without touching the data path.  The rows complete
    different numbers of ops, so load is compared per completed op."""
    from repro.workloads.generator import run_workload
    table = Table(
        "A6  Server-cluster scaling (Fig. 1)",
        ["servers", "ops", "total_txn", "max_per_server_txn",
         "max_txn_per_op", "balance_ratio", "lease_state_bytes"])
    for n in server_counts:
        cfg = SystemConfig(
            n_clients=4, n_servers=n, seed=seed, protocol="storage_tank",
            workload=WorkloadConfig(n_files=24, think_time=0.05,
                                    read_fraction=0.6))
        system = build_system(cfg)
        stats = run_workload(system, duration)
        ops = sum(s.ops_succeeded for s in stats.values())
        per_server = [srv.transactions for srv in system.servers.values()]
        total = sum(per_server)
        state = sum(srv.authority.state_bytes()
                    for srv in system.servers.values())
        table.add_row(n, ops, total, max(per_server),
                      round(max(per_server) / max(ops, 1), 2),
                      round(max(per_server) / max(total / n, 1), 2), state)
    table.note("the busiest server's transactions per completed op drop as "
               "the namespace spreads; lease state stays 0 at every cluster "
               "size (passive authority).")
    return table


# ---------------------------------------------------------------------------
# A7 — server failure and recovery (§6): outage cost of the
#      reassertion-based design
# ---------------------------------------------------------------------------

@experiment("a7")
def ablation_a7_server_recovery(seed: int = 0,
                                outages: Tuple[float, ...] = (1.0, 5.0, 15.0),
                                ) -> Table:
    """Crash the server mid-workload, restart after ``outage`` seconds,
    and measure: how long clients were refused service, whether every
    cached lock survived via reassertion, and that no data was lost."""
    from repro.workloads.generator import run_workload
    table = Table(
        "A7  Server crash + restart with lock reassertion (§6)",
        ["outage_s", "ops_ok", "ops_refused", "reasserts", "reassert_conflicts",
         "locks_preserved", "silent_lost", "safe"])
    for outage in outages:
        cfg = SystemConfig(
            n_clients=3, seed=seed, protocol="storage_tank",
            workload=WorkloadConfig(n_files=8, think_time=0.15,
                                    read_fraction=0.6))
        system = build_system(cfg)

        def outage_proc(system=system, outage=outage) -> Generator:
            yield system.sim.timeout(15.0)
            system.server.crash()
            yield system.sim.timeout(outage)
            system.server.restart()
        system.spawn(outage_proc())
        stats = run_workload(system, duration=80.0)

        ops_ok = sum(st.ops_succeeded for st in stats.values())
        refused = sum(st.ops_rejected + st.ops_failed for st in stats.values())
        reasserts = sum(c.lockclient.reasserts_sent
                        for c in system.pool.iter_active())
        # Every lock a client believes it holds must exist server-side.
        preserved = all(
            system.server.locks.mode_of(name, obj) == mode
            for name, c in system.pool.live_items()
            for obj, mode in c.locks.all_held())
        report = ConsistencyAuditor(system).audit()
        table.add_row(outage, ops_ok, refused, reasserts,
                      system.server.recovery.reassert_conflicts,
                      "yes" if preserved else "NO",
                      len(report.lost_updates),
                      "YES" if report.safe else "NO")
    table.note("clients ride out the outage (refused ops are transient "
               "DeliveryErrors), reassert their locks on the epoch bump, "
               "and no update is lost at any outage length.")
    return table

