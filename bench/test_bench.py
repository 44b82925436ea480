"""Tests of the benchmark itself.  Run with ``pytest bench -q``.

They drive ``--quick`` runs (sizes / 20) in fresh processes, exactly as the
benchmark is driven for real, so they sit outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import spec  # noqa: E402
from shim import ConfigShim  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_quick(workload: str, trace: int, tmp_path_factory) -> dict:
    detail = tmp_path_factory.mktemp("bench") / f"{workload}-{trace}.json"
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds",
               str(spec.RUN_SECONDS), "--trace", str(trace), "--quick",
               "--detail", str(detail)],
        stdout=subprocess.PIPE, text=True, check=True)
    return {"line": json.loads(done.stdout.strip().splitlines()[-1]),
            "record": json.loads(detail.read_text())}


@pytest.fixture(scope="module", params=spec.ALL_WORKLOADS)
def traced(request, tmp_path_factory) -> dict:
    return run_quick(request.param, 1, tmp_path_factory)


def test_benchmark_json_is_what_the_code_implements():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == spec.benchmark_json()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in committed[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 1 <= len(committed["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in committed["end_to_end"])
    assert max(m["bound"] for m in committed["end_to_end"]) <= 0.25


def test_workload_table_matches_spec():
    from workloads import WORKLOADS
    assert tuple(WORKLOADS) == spec.ALL_WORKLOADS


def test_untraced_run_prints_every_contract_end_to_end_metric(
        tmp_path_factory):
    run = run_quick("meta_cache", 0, tmp_path_factory)
    line, record = run["line"], run["record"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(spec.CONTRACT_END_TO_END)
    for name, cell in line["metrics"].items():
        assert cell["unit"] == spec.END_TO_END_BY_NAME[name].unit
        assert cell["value"] > 0
    # All nine are in the full record; the op workloads have no nulls.
    assert set(record["end_to_end"]) == (
        {m.name for m in spec.END_TO_END} | {spec.SAMPLES[0]})
    assert None not in record["end_to_end"].values()


def test_traced_run_prints_every_per_layer_metric(traced):
    line, record = traced["line"], traced["record"]
    assert line["correct"] is True, record["problems"]
    rows = spec.per_layer_rows()
    assert list(line["metrics"]) == [name for name, _, _ in rows]
    for name, unit, _ in rows:
        assert NAME.match(name)
        assert line["metrics"][name]["unit"] == unit
    # The stated nulls, and only those.
    nulls = {k for k, v in record["end_to_end"].items() if v is None}
    expected = (set() if record["workload"] in spec.OP_WORKLOADS
                else set(spec.SIM_OP_METRICS))
    assert nulls == expected


def test_layer_rows_sum_to_the_traced_window(traced):
    layer = traced["record"]["per_layer"]
    total = sum(layer[f"{name}.self_s"] for name in spec.LAYERS)
    assert total == pytest.approx(layer["trace.window_s"], rel=0.02)
    assert sum(layer[f"{name}.self_share"] for name in spec.LAYERS) == (
        pytest.approx(1.0))
    assert layer["unattributed.self_share"] <= 0.05
    assert layer["trace.overhead_x"] > 1.0


def test_meta_cache_never_touches_the_san(tmp_path_factory):
    record = run_quick("meta_cache", 0, tmp_path_factory)["record"]
    assert record["per_layer"]["net.san.ios"] == 0
    assert record["per_layer"]["netcache.hit_ratio"] > 0


def test_config_shim_reports_a_dropped_field():
    from repro.core.config import ScaleConfig, SystemConfig
    shim = ConfigShim()
    cfg = shim.build(SystemConfig, n_clients=3, flag_deleted_by_roadmap=True,
                     scale=shim.build(ScaleConfig, lazy_clients=False,
                                      also_gone=1))
    assert cfg.n_clients == 3
    assert shim.dropped == ["ScaleConfig.also_gone",
                            "SystemConfig.flag_deleted_by_roadmap"]
    # Functions are filtered by signature, the way flags reach
    # generate_schedule and scale_point.
    assert shim.build(lambda a, b=0: (a, b), 1, b=2, c=3) == (1, 2)
    assert shim.dropped[-1] == "<lambda>.c"


def test_all_writes_a_result_set_that_compares_clean(tmp_path):
    paths = []
    for label in "ab":
        out = tmp_path / f"{label}.json"
        subprocess.run(RUN + ["--all", "--quick", "--only", "scale_park",
                              "--seed", "2", "--out", str(out)],
                       stdout=subprocess.DEVNULL, check=True)
        paths.append(out)
    a, b = (json.loads(p.read_text()) for p in paths)
    assert a["correct"] and a["workloads"]["scale_park"]["sim_digest"] == (
        b["workloads"]["scale_park"]["sim_digest"])
    rows = compare.compare(a, b)
    assert {r["metric"] for r in rows} == {
        m.name for m in spec.END_TO_END if "scale_park" in m.workloads}
    sim = [r for r in rows if r["kind"] == "sim"]
    assert sim and all(r["verdict"] == "unchanged" for r in sim)


def test_compare_verdicts():
    lower = spec.END_TO_END_BY_NAME["peak_rss_mb"]        # bound 10%
    higher = spec.END_TO_END_BY_NAME["work_per_wall_s"]   # bound 25%
    p50 = spec.END_TO_END_BY_NAME["sim_op_p50_ms"]        # 5% or 0.01 ms
    assert compare.verdict(lower, [100, 101, 102], [104, 105, 106]) == (
        "unchanged")
    assert compare.verdict(lower, [100, 101, 102], [115, 116, 117]) == "worse"
    assert compare.verdict(higher, [100, 101, 102], [70, 71, 72]) == "worse"
    assert compare.verdict(higher, [100, 101, 102], [85, 86, 87]) == (
        "unchanged")
    assert compare.verdict(higher, [100, 101, 102], [120, 121, 122]) == (
        "unchanged")
    assert compare.verdict(lower, [90, 100, 115], [95, 105, 118]) == (
        "unresolved")
    assert compare.verdict(p50, [0.0] * 3, [0.005] * 3) == "unchanged"
    assert compare.verdict(p50, [0.0] * 3, [0.02] * 3) == "worse"


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady_rw", "--seed",
         "0", "--seconds", "12", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
