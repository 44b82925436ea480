"""Every canned scenario in ``repro.fault.scenarios``.

Each test checks two things: the *schedule* the scenario builder queues
(labels, times) and the *safety verdict* after driving a workload
through it — the paper's figures are failure stories, so the system
must come out consistent.
"""

from __future__ import annotations

from repro.analysis.consistency import ConsistencyAuditor
from repro.fault.scenarios import (
    client_crash,
    fig2_control_partition,
    san_partition,
    server_crash,
    transient_partition,
)
from repro.workloads import WorkloadDriver, populate_files

from tests.conftest import make_system, run_gen


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
    inj = fig2_control_partition(s, client="c1", at=5.0)
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
    inj = transient_partition(s, client="c1", at=5.0, duration=6.0)
    assert _labels(inj) == ["isolate:c1", "heal_control"]
    report = _drive_through(s, inj)
    assert not report.stale_reads
    assert not report.unsynchronized_writes
    # Fig. 5: after the heal the client reconnects and serves again.
    assert s.control_net.reachable("c1", "server")


def test_client_crash_without_restart():
    s = make_system(record_trace=True)
    inj = client_crash(s, client="c1", at=5.0)
    assert _labels(inj) == ["crash:c1"]
    report = _drive_through(s, inj)
    assert not s.client("c1").endpoint.alive
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_client_crash_with_restart():
    s = make_system(record_trace=True)
    inj = client_crash(s, client="c1", at=5.0, restart_at=12.0)
    assert _labels(inj) == ["crash:c1", "restart:c1"]
    report = _drive_through(s, inj)
    assert s.client("c1").endpoint.alive
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_server_crash_without_restart():
    s = make_system(record_trace=True)
    inj = server_crash(s, server="server", at=5.0)
    assert _labels(inj) == ["crash:server"]
    report = _drive_through(s, inj)
    assert not s.server.endpoint.alive
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_server_crash_with_restart():
    s = make_system(record_trace=True)
    inj = server_crash(s, server="server", at=5.0, restart_at=8.0)
    assert _labels(inj) == ["crash:server", "restart:server"]
    report = _drive_through(s, inj, horizon=60.0)
    assert s.server.endpoint.alive
    # The restart bumped the epoch and reopened for business.
    assert s.server.recovery.epoch == 2
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_san_partition_schedule_and_safety():
    s = make_system(record_trace=True)
    inj = san_partition(s, client="c1", at=5.0, heal_at=15.0)
    assert _labels(inj) == [f"san_cut:c1-{d}" for d in s.disks] + ["heal_san"]
    report = _drive_through(s, inj)
    # §3: losing the SAN is the failure class leases cannot mask; the
    # client reports errors but must not corrupt shared state.
    assert not report.stale_reads
    assert not report.unsynchronized_writes


def test_san_partition_without_heal():
    s = make_system(record_trace=True)
    inj = san_partition(s, client="c1", at=5.0)
    assert _labels(inj) == [f"san_cut:c1-{d}" for d in s.disks]
    report = _drive_through(s, inj)
    assert not report.unsynchronized_writes
