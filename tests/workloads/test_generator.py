"""Workload drivers against the real system."""

import pytest

from repro.core import SystemConfig, WorkloadConfig, build_system
from repro.workloads import WorkloadDriver, populate_files, run_workload

from tests.conftest import make_system, run_gen


def test_populate_creates_files():
    s = make_system(n_clients=1)
    paths = run_gen(s, populate_files(s, WorkloadConfig(n_files=5)))
    assert len(paths) == 5
    assert s.server.metadata.file_count == 5


def test_driver_runs_ops():
    s = make_system(n_clients=2,
                    workload=WorkloadConfig(n_files=4, think_time=0.05))
    paths = run_gen(s, populate_files(s))
    d = WorkloadDriver(s, "c1", paths)
    stats = run_gen(s, d.run(5.0), hard_limit=1000)
    assert stats.ops_attempted > 10
    assert stats.ops_succeeded > 0
    assert stats.reads + stats.writes == stats.ops_succeeded \
        or stats.reads + stats.writes >= stats.ops_succeeded - 1


def test_run_workload_end_to_end():
    s = make_system(n_clients=2,
                    workload=WorkloadConfig(n_files=4, think_time=0.1))
    stats = run_workload(s, duration=5.0)
    assert set(stats) == {"c1", "c2"}
    assert all(v.ops_attempted > 0 for v in stats.values())


def test_driver_survives_partition():
    """Ops fail while the client is isolated; the driver keeps going."""
    s = make_system(n_clients=2,
                    workload=WorkloadConfig(n_files=4, think_time=0.1))
    paths = run_gen(s, populate_files(s))
    d = WorkloadDriver(s, "c1", paths)
    proc = s.spawn(d.run(60.0))

    def cut():
        yield s.sim.timeout(10.0)
        s.control_net.isolate("c1")
    s.spawn(cut())
    s.sim.run_until_event(proc, hard_limit=2000)
    assert d.stats.ops_rejected > 0 or d.stats.ops_failed > 0
    assert d.stats.ops_succeeded > 0  # the pre-partition window worked


def test_driver_stop():
    s = make_system(n_clients=1,
                    workload=WorkloadConfig(n_files=2, think_time=0.05))
    paths = run_gen(s, populate_files(s))
    d = WorkloadDriver(s, "c1", paths)
    proc = s.spawn(d.run(1000.0))

    def stopper():
        yield s.sim.timeout(2.0)
        d.stop()
    s.spawn(stopper())
    s.sim.run_until_event(proc, hard_limit=5000)
    assert s.sim.now < 100.0


def test_stats_latency_mean():
    from repro.workloads import WorkloadStats
    st = WorkloadStats()
    assert st.mean_latency == 0.0
    st.latencies.extend([1.0, 3.0])
    assert st.mean_latency == 2.0


def test_nfs_workload_runs():
    s = make_system(n_clients=2, protocol="nfs",
                    workload=WorkloadConfig(n_files=3, think_time=0.1))
    stats = run_workload(s, duration=5.0)
    assert all(v.ops_succeeded > 0 for v in stats.values())
