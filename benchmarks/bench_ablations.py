"""A1-A4 — ablations over the protocol's design choices (DESIGN.md §6)."""

from benchmarks.conftest import run_experiment
from repro.harness import (
    ablation_a1_tau_sweep,
    ablation_a2_phase_boundaries,
    ablation_a3_detection,
    ablation_a4_ack_while_expiring,
)
from repro.harness.ablations import (
    ablation_a5_scalability,
    ablation_a6_server_cluster,
    ablation_a7_server_recovery,
)


def test_a1_tau_sweep(benchmark):
    (table,) = run_experiment(benchmark, ablation_a1_tau_sweep, seed=0,
                              taus=(5.0, 15.0, 30.0, 60.0),
                              epsilons=(0.0, 0.05, 0.2))
    rows = table.as_dicts()
    # Recovery window tracks the tau(1+eps) bound within a few seconds.
    for r in rows:
        assert r["window_s"] != "never"
        assert abs(r["window_s"] - r["bound_s"]) < 6.0
    # The dial: longer tau = slower recovery, cheaper idle traffic.
    short = next(r for r in rows if r["tau"] == 5.0 and r["epsilon"] == 0.0)
    long_ = next(r for r in rows if r["tau"] == 60.0 and r["epsilon"] == 0.0)
    assert long_["window_s"] > short["window_s"] * 3
    assert short["idle_keepalives_per_min"] > \
        long_["idle_keepalives_per_min"] * 5
    # Larger eps inflates the wait at fixed tau.
    w_low = next(r for r in rows if r["tau"] == 60.0 and r["epsilon"] == 0.0)
    w_high = next(r for r in rows if r["tau"] == 60.0 and r["epsilon"] == 0.2)
    assert w_high["window_s"] > w_low["window_s"]


def test_a2_phase_boundaries(benchmark):
    (table,) = run_experiment(benchmark, ablation_a2_phase_boundaries, seed=0)
    rows = table.as_dicts()
    # Generous flush windows harden everything before expiry.
    for r in rows:
        if r["flush_window_s"] >= 3.0:
            assert r["flushed_in_time"] == r["dirty_pages"]
            assert r["lost_reported"] == 0
    # A starved phase 4 loses the cache (reported, never silent).
    tightest = rows[-1]
    assert tightest["flush_window_s"] < 1.0
    assert tightest["lost_reported"] > 0


def test_a3_detection(benchmark):
    (table,) = run_experiment(benchmark, ablation_a3_detection, seed=0)
    rows = table.as_dicts()
    # Total unavailability moves with the detection budget, on top of
    # the constant tau(1+eps) term.
    assert rows[0]["window_s"] < rows[-1]["window_s"]
    spread = rows[-1]["window_s"] - rows[0]["window_s"]
    budget_spread = rows[-1]["detection_budget_s"] - rows[0]["detection_budget_s"]
    assert abs(spread - budget_spread) < 4.0


def test_a5_scalability(benchmark):
    (table,) = run_experiment(benchmark, ablation_a5_scalability, seed=0)
    rows = table.as_dicts()
    # The single shared disk is the ceiling: aggregate MB/s does not grow
    # with clients once saturated...
    assert rows[-1]["san_MB_per_s"] < rows[0]["san_MB_per_s"] * 1.5
    # ...queueing delay does...
    assert rows[-1]["queue_wait_s"] > rows[1]["queue_wait_s"] * 2
    # ...and the metadata server never becomes a data server.
    for r in rows:
        assert r["server_data_MB"] == 0
        assert r["server_txn"] < 100  # a handful of metadata transactions


def test_a6_server_cluster(benchmark):
    (table,) = run_experiment(benchmark, ablation_a6_server_cluster, seed=0)
    rows = {r["servers"]: r for r in table.as_dicts()}
    # The busiest server's load per completed op drops as the cluster
    # grows.  Per op, because the rows complete different numbers of ops
    # (the workload sits in the lock-queue wedge, EXPERIMENTS.md A6):
    # absolute transaction counts are not comparable across them.
    assert rows[2]["max_txn_per_op"] < rows[1]["max_txn_per_op"] / 2
    assert rows[4]["max_txn_per_op"] <= rows[2]["max_txn_per_op"]
    # Routing stays reasonably balanced and the authority stays passive.
    for r in rows.values():
        assert r["balance_ratio"] < 1.8
        assert r["lease_state_bytes"] == 0


def test_a7_server_recovery(benchmark):
    (table,) = run_experiment(benchmark, ablation_a7_server_recovery, seed=0)
    rows = table.as_dicts()
    for r in rows:
        # Reassertion restores every lock; nothing is lost, ever.
        assert r["locks_preserved"] == "yes"
        assert r["silent_lost"] == 0
        assert r["safe"] == "YES"
        assert r["reasserts"] > 0
    # Longer outages cost throughput, not correctness.
    assert rows[0]["ops_ok"] >= rows[-1]["ops_ok"]


def test_a4_ack_while_expiring(benchmark):
    (table,) = run_experiment(benchmark, ablation_a4_ack_while_expiring,
                              seed=0)
    rows = {r["variant"]: r for r in table.as_dicts()}
    paper = rows["paper rule"]
    ablated = rows["ablated (ACKs suspects)"]
    # The paper's correctness rule holds the system safe...
    assert paper["safe"] == "YES"
    assert paper["client_active_at_steal"] == "no"
    # ...removing it lets a steal land under an actively-renewed lease.
    assert ablated["safe"] == "NO"
    assert ablated["client_active_at_steal"].startswith("YES")
    assert ablated["stale_reads"] > 0
