"""The paper's failure stories as fault schedules.

Each test checks two things: the *schedule* the steps queue (labels,
times) and the *safety verdict* after driving a workload through it —
the paper's figures are failure stories, so the system must come out
consistent.
"""

from __future__ import annotations

from repro.analysis.consistency import ConsistencyAuditor
from repro.fault import FaultInjector
from repro.workloads import WorkloadDriver, populate_files

from tests.conftest import make_system, run_gen


def _inject(system, *steps):
    """An injector with ``(time, kind, params)`` steps queued."""
    inj = FaultInjector(system)
    for time, kind, params in steps:
        inj.apply_step(time, kind, params)
    return inj


def _labels(inj):
    return [s.label for s in inj._steps]


def _drive_through(system, inj, horizon=40.0):
    """Populate files, start the faults, run a workload, settle."""
    paths = run_gen(system, populate_files(system))
    inj.start()
    drivers = [WorkloadDriver(system, name, paths)
               for name in system.config.client_names()]
    for d in drivers:
        system.spawn(d.run(horizon))
    # Settle past the last lease timer so verdicts are final.
    tau = system.config.lease.tau
    system.run(until=horizon + 2.0 * tau)
    return ConsistencyAuditor(system).audit()


def test_fig2_control_partition_schedule_and_safety():
    s = make_system(record_trace=True)
    # Fig. 2: the control network partitions around one client while
    # the SAN stays intact.
    inj = _inject(s, (5.0, "isolate_client", {"client": "c1"}))
    assert _labels(inj) == ["isolate:c1"]
    assert [st.time for st in inj._steps] == [5.0]
    report = _drive_through(s, inj)
    # The isolated client's lease expires; its cached locks are stolen
    # safely — no conflicting writes, no stale reads.
    assert not report.stale_reads
    assert not report.unsynchronized_writes
    assert not s.control_net.reachable("c1", "server")


def test_transient_partition_schedule_and_safety():
    s = make_system(record_trace=True)
    # Fig. 5: the client drops off the control network long enough to
    # miss a message, then reappears.
    inj = _inject(s, (5.0, "isolate_client", {"client": "c1"}),
                  (11.0, "heal_control", {}))
    assert _labels(inj) == ["isolate:c1", "heal_control"]
    report = _drive_through(s, inj)
    assert not report.stale_reads
    assert not report.unsynchronized_writes
    # Fig. 5: after the heal the client reconnects and serves again.
    assert s.control_net.reachable("c1", "server")


def test_client_crash_without_restart():
    s = make_system(record_trace=True)
    inj = _inject(s, (5.0, "crash_client_lossy", {"client": "c1"}))
    assert _labels(inj) == ["crash:c1"]
    report = _drive_through(s, inj)
    assert not s.client("c1").endpoint.alive
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_client_crash_with_restart():
    s = make_system(record_trace=True)
    inj = _inject(s, (5.0, "crash_client_lossy", {"client": "c1"}),
                  (12.0, "restart_client", {"client": "c1"}))
    assert _labels(inj) == ["crash:c1", "restart:c1"]
    report = _drive_through(s, inj)
    assert s.client("c1").endpoint.alive
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_server_crash_without_restart():
    s = make_system(record_trace=True)
    inj = _inject(s, (5.0, "crash_server", {"server": "server"}))
    assert _labels(inj) == ["crash:server"]
    report = _drive_through(s, inj)
    assert not s.server.endpoint.alive
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_server_crash_with_restart():
    s = make_system(record_trace=True)
    inj = _inject(s, (5.0, "crash_server", {"server": "server"}),
                  (8.0, "restart_server", {"server": "server"}))
    assert _labels(inj) == ["crash:server", "restart:server"]
    report = _drive_through(s, inj, horizon=60.0)
    assert s.server.endpoint.alive
    # The restart bumped the epoch and reopened for business.
    assert s.server.recovery.epoch == 2
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def _san_cut(system, client="c1", at=5.0):
    """The client keeps its control-network connection but loses the
    SAN (the failure class where leasing "offers no improvements over
    fencing", §3)."""
    return [(at, "partition_san", {"initiator": client, "device": dev})
            for dev in system.disks]


def test_san_partition_schedule_and_safety():
    s = make_system(record_trace=True)
    inj = _inject(s, *_san_cut(s), (15.0, "heal_san", {}))
    assert _labels(inj) == [f"san_cut:c1-{d}" for d in s.disks] + ["heal_san"]
    report = _drive_through(s, inj)
    # §3: losing the SAN is the failure class leases cannot mask; the
    # client reports errors but must not corrupt shared state.
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_san_partition_without_heal():
    s = make_system(record_trace=True)
    inj = _inject(s, *_san_cut(s))
    assert _labels(inj) == [f"san_cut:c1-{d}" for d in s.disks]
    report = _drive_through(s, inj)
    assert not report.unsynchronized_writes
