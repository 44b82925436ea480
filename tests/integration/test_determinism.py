"""Bit-for-bit reproducibility: same seed ⇒ same simulation.

Every experiment in this repository leans on deterministic replay
(A/B protocol comparisons share the seed).  This guards it.
"""

from repro.core import SystemConfig, WorkloadConfig, build_system
from repro.workloads import run_workload


def _fingerprint(seed: int):
    cfg = SystemConfig(n_clients=3, seed=seed,
                       workload=WorkloadConfig(n_files=5, think_time=0.1))
    system = build_system(cfg)

    def cut():
        yield system.sim.timeout(10.0)
        system.control_net.isolate("c1")
    system.spawn(cut())
    stats = run_workload(system, duration=25.0)
    trace_sig = [(round(r.time, 9), r.kind, r.node)
                 for r in system.trace.records]
    disk_sig = [(e.time, e.op, e.initiator, e.lba, e.tag)
                for d in system.disks.values() for e in d.history]
    stat_sig = {k: (v.ops_attempted, v.ops_succeeded, v.ops_rejected)
                for k, v in stats.items()}
    return trace_sig, disk_sig, stat_sig


def test_same_seed_identical_run():
    a = _fingerprint(77)
    b = _fingerprint(77)
    assert a[2] == b[2]          # workload outcomes
    assert a[1] == b[1]          # every disk I/O, byte for byte
    assert a[0] == b[0]          # the full event trace


def test_different_seed_differs():
    a = _fingerprint(77)
    b = _fingerprint(78)
    assert a[0] != b[0]


def test_experiment_tables_reproducible():
    from repro.harness import experiment_e2_two_network
    t1 = experiment_e2_two_network(seed=5)
    t2 = experiment_e2_two_network(seed=5)
    assert t1.rows == t2.rows
