"""Smoke tests: every experiment runs (reduced parameters) and its
headline shape assertion holds.  The full-size runs live in
benchmarks/; these keep `pytest tests/` self-contained."""

import random

import pytest

from repro.analysis.report import Table
from repro.harness import (
    ablation_a3_detection,
    ablation_a4_ack_while_expiring,
    experiment_e1_direct_access,
    experiment_e2_two_network,
    experiment_e3_fencing_inadequacy,
    experiment_e4_theorem31,
    experiment_e5_lease_phases,
    experiment_e6_nack,
    experiment_e8_vlease_scaling,
    experiment_e10_slow_client,
)


def _rows(table: Table):
    return {tuple(r[:1])[0]: dict(zip(table.columns, r)) for r in table.rows}


def test_e1_smoke():
    table = experiment_e1_direct_access(seed=1, duration=8.0, n_clients=2)
    rows = _rows(table)
    assert rows["direct"]["server_data_MB"] == 0
    assert rows["server"]["server_data_MB"] > 0


def test_e2_smoke():
    table = experiment_e2_two_network(seed=1, horizon=120.0)
    rows = _rows(table)
    assert rows["no_protocol"]["recovered"] == "no"
    assert rows["storage_tank"]["recovered"] == "yes"


def test_e3_smoke():
    table = experiment_e3_fencing_inadequacy(seed=1, horizon=100.0)
    rows = _rows(table)
    assert rows["storage_tank"]["safe"] == "YES"
    assert rows["naive_steal"]["safe"] == "NO"


def test_e4_smoke():
    table = experiment_e4_theorem31(seed=1, trials=200)
    assert all(r["viol_paper_rule"] == 0 for r in table.as_dicts())


def test_e5_smoke():
    table = experiment_e5_lease_phases(seed=1)
    rows = _rows(table)
    assert rows["active"]["keepalives"] == 0
    assert rows["partitioned"]["dirty_at_expiry"] == 0


def test_e6_smoke():
    table = experiment_e6_nack(seed=1)
    rows = {r["variant"]: r for r in table.as_dicts()}
    assert rows["NACK (paper)"]["nacks_seen"] >= 1


def test_e8_smoke():
    table = experiment_e8_vlease_scaling(seed=1, duration=30.0,
                                         object_counts=(1, 10))
    rows = table.as_dicts()
    assert rows[1]["vlease_msgs"] > rows[0]["vlease_msgs"] * 3
    assert rows[1]["storage_tank_msgs"] <= rows[0]["storage_tank_msgs"] + 2


def test_e10_smoke():
    tables = experiment_e10_slow_client(seed=1)
    rows = {r["variant"]: r for r in tables[0].as_dicts()}
    assert rows["lease+fence"]["safe"] == "YES"
    assert rows["lease only (no fence)"]["safe"] == "NO"


def test_a3_smoke():
    table = ablation_a3_detection(seed=1, policies=((0.5, 1), (2.0, 4)))
    rows = table.as_dicts()
    assert rows[0]["window_s"] < rows[1]["window_s"]


def test_a4_smoke():
    table = ablation_a4_ack_while_expiring(seed=1)
    rows = {r["variant"]: r for r in table.as_dicts()}
    assert rows["paper rule"]["safe"] == "YES"
    assert rows["ablated (ACKs suspects)"]["safe"] == "NO"


def test_cli_runner_single():
    from repro.harness.__main__ import main
    assert main(["e4", "--seed", "2"]) == 0


def test_cli_markdown_export(tmp_path):
    from repro.harness.__main__ import main
    out = tmp_path / "tables.md"
    assert main(["e4", "--seed", "2", "--markdown", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# Experiment tables")
    assert "| epsilon |" in text
    assert "Theorem 3.1" in text


def test_cli_runner_rejects_unknown():
    from repro.harness.__main__ import main
    with pytest.raises(SystemExit):
        main(["e99"])


def test_e_scale_point_small_population():
    from repro.harness.scale import scale_point
    point = scale_point(1000, duration=10.0)
    assert point["clients"] == 1000
    assert point["live"] == 48
    assert point["kernel_after_build"] <= 64   # O(pools), not O(clients)
    assert point["parked_expiries"] >= 900     # pooled sweep actually ran
    assert point["txn_per_sim_s"] > 0
    assert point["ops_succeeded"] > 0


def test_e_scale_table_respects_clients_cap():
    from repro.harness.scale import experiment_e_scale
    table = experiment_e_scale(clients=1000, duration=5.0, active=8)
    rows = table.as_dicts()
    assert [r["clients"] for r in rows] == [1000]
    assert all(r["live"] == 8 for r in rows)


def test_e_adv_point_fences_suppress_adversary():
    from repro.harness.adversary import adv_point
    point = adv_point(1, n_clients=200, duration=30.0)
    assert point["adversaries"] == 1
    assert point["mix"] == "suppress_release"
    assert point["honest_goodput"] > 0
    assert point["fenced"] == 1          # escalation -> steal -> fence
    assert point["mean_ttf"] is not None and point["mean_ttf"] > 0


def test_e_adv_baseline_has_no_fences():
    from repro.harness.adversary import adv_point
    point = adv_point(0, n_clients=200, duration=30.0)
    assert point["mix"] == "-"
    assert point["fenced"] == 0 and point["mean_ttf"] is None


def test_e_cache_point_ignores_the_ambient_random_module():
    """The E-cache driver draws only from its seeded streams: reseeding
    Python's global ``random`` between two runs moves no simulated
    field."""
    from repro.harness.cache import cache_point

    def simulated(ambient_seed):
        random.seed(ambient_seed)
        point = cache_point(1000, 2, 1.2, seed=0, active=4, duration=2.0)
        del point["run_wall_s"], point["_system"]
        return point

    first = simulated(1)
    assert first["ops"] > 0 and first["hits"] > 0
    assert simulated(2) == first
