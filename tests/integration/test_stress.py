"""Robustness sweeps: message loss, maximal clock skew, many seeds.

The paper's protocol must hold under *any* datagram loss pattern and
any in-bound clock assignment; these tests run the canonical contended
partition under hostile transport conditions and assert the audit stays
clean every time.
"""

import pytest

from repro.analysis import ConsistencyAuditor
from repro.core import LeaseConfig, NetworkConfig, SystemConfig, build_system
from repro.storage import BLOCK_SIZE

from tests.conftest import run_gen


def contended_partition(cfg: SystemConfig, horizon: float = 130.0):
    system = build_system(cfg)
    c1, c2 = system.client("c1"), system.client("c2")
    log = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        log["tag"] = yield from c1.write(fd, 0, 2 * BLOCK_SIZE)

    def cut():
        yield system.sim.timeout(5.0)
        system.control_net.isolate("c1")

    def contender():
        yield system.sim.timeout(8.0)
        while system.sim.now < horizon:
            try:
                fd = yield from c2.open_file("/f", "w")
                log["takeover"] = system.sim.now
                log["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)
                return
            except Exception:
                yield system.sim.timeout(1.0)
    system.spawn(holder())
    system.spawn(cut())
    system.spawn(contender())
    system.run(until=horizon)
    return system, log


@pytest.mark.parametrize("drop", [0.02, 0.08, 0.15])
def test_safety_under_message_loss(drop):
    """Random datagram loss must never break safety — only slow things."""
    cfg = SystemConfig(n_clients=2, seed=13, writeback_interval=1000.0,
                       network=NetworkConfig(ctrl_drop_probability=drop))
    system, log = contended_partition(cfg, horizon=150.0)
    report = ConsistencyAuditor(system).audit()
    assert report.safe, report.summary()
    assert log.get("takeover") is not None
    # The isolated holder's data still survived the partition.
    assert log["read"][0][1] == log["tag"]


@pytest.mark.parametrize("seed", range(8))
def test_safety_across_seeds(seed):
    """The canonical scenario audits clean for every seed (different
    clock rates, offsets, network jitter draws)."""
    cfg = SystemConfig(n_clients=2, seed=seed, writeback_interval=1000.0)
    system, log = contended_partition(cfg)
    report = ConsistencyAuditor(system).audit()
    assert report.safe, (seed, report.summary())
    assert log.get("takeover") is not None
    # Theorem 3.1 at system level, every seed.
    steals = [r.time for r in system.trace.select(kind="lease.steal")]
    expires = [r.time for r in system.trace.select(kind="lease.expire",
                                                   node="c1")]
    assert min(expires) <= min(steals) + 1e-9


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
def test_safety_at_extreme_skew(epsilon):
    """Any clock assignment inside the bound keeps the ordering."""
    for seed in (3, 4, 5):
        cfg = SystemConfig(n_clients=2, seed=seed,
                           writeback_interval=1000.0,
                           lease=LeaseConfig(tau=20.0, epsilon=epsilon))
        system, log = contended_partition(cfg)
        report = ConsistencyAuditor(system).audit()
        assert report.safe, (epsilon, seed, report.summary())
        steals = [r.time for r in system.trace.select(kind="lease.steal")]
        expires = [r.time for r in system.trace.select(kind="lease.expire",
                                                       node="c1")]
        assert steals and expires
        assert min(expires) <= min(steals) + 1e-9


def test_loss_and_skew_combined():
    """The hostile combination: 10% loss, ε=0.2, short lease."""
    cfg = SystemConfig(n_clients=2, seed=29, writeback_interval=1000.0,
                       lease=LeaseConfig(tau=15.0, epsilon=0.2),
                       network=NetworkConfig(ctrl_drop_probability=0.10))
    system, log = contended_partition(cfg, horizon=150.0)
    report = ConsistencyAuditor(system).audit()
    assert report.safe, report.summary()
    assert log.get("takeover") is not None


def test_lossy_workload_stays_coherent():
    """A shared workload over a lossy control network: retries and
    at-most-once keep everything exactly-once-visible and coherent."""
    from repro.core import WorkloadConfig
    from repro.workloads import run_workload
    cfg = SystemConfig(n_clients=3, seed=31,
                       network=NetworkConfig(ctrl_drop_probability=0.05),
                       workload=WorkloadConfig(n_files=6, think_time=0.2,
                                               read_fraction=0.6))
    system = build_system(cfg)
    stats = run_workload(system, duration=40.0)
    assert sum(s.ops_succeeded for s in stats.values()) > 50
    report = ConsistencyAuditor(system).audit()
    assert report.safe, report.summary()
