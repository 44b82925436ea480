"""SARIF output, baseline/diff gating and the incremental cache."""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_source, load_config
from repro.lint.rules import RULES
from repro.lint.sarif import render_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

_BAD_ONE = "def f(xs=[]):\n    return xs\n"
_BAD_TWO = _BAD_ONE + "\n\ndef g(ys=[]):\n    return ys\n"


def _run_cli(*argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})


def _project(tmp_path, source=_BAD_ONE):
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
    (tmp_path / "bad.py").write_text(source)
    return tmp_path


# -- SARIF ------------------------------------------------------------------

def _sarif_doc():
    source = (FIXTURES / "rpl007_fires.py").read_text()
    result = lint_source(source, path="src/repro/fixture_mod.py",
                         config=load_config(
                             explicit=REPO_ROOT / "pyproject.toml"),
                         select=["RPL007"])
    return render_sarif(result)


def test_sarif_is_valid_2_1_0_shape():
    doc = json.loads(_sarif_doc())
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    assert len(doc["runs"]) == 1
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(RULES)  # all shipped rules, stable order
    assert len(rule_ids) == 13
    for res in run["results"]:
        assert res["ruleId"] in rule_ids
        assert rule_ids[res["ruleIndex"]] == res["ruleId"]
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"]
        assert loc["region"]["startLine"] >= 1
        assert loc["region"]["startColumn"] >= 1
    assert run["results"], "fixture must produce at least one result"


def test_sarif_matches_golden_document():
    golden = (GOLDEN / "rpl007_fires.sarif.json").read_text()
    assert _sarif_doc() + "\n" == golden


def test_cli_emits_sarif_to_output_file(tmp_path):
    root = _project(tmp_path)
    out = tmp_path / "lint.sarif"
    proc = _run_cli("bad.py", "--select", "RPL007", "--format", "sarif",
                    "--output", str(out), cwd=root)
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"]


def test_sarif_reports_parse_errors_as_notifications(tmp_path):
    root = _project(tmp_path, source="def broken(:\n")
    proc = _run_cli("bad.py", "--format", "sarif", cwd=root)
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    invocations = doc["runs"][0]["invocations"]
    assert invocations[0]["executionSuccessful"] is False
    assert invocations[0]["toolExecutionNotifications"]


# -- baseline / diff --------------------------------------------------------

def test_write_baseline_then_diff_is_clean(tmp_path):
    root = _project(tmp_path)
    proc = _run_cli("bad.py", "--select", "RPL007",
                    "--write-baseline", "base.json", cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert "1 finding(s)" in proc.stdout
    proc = _run_cli("bad.py", "--select", "RPL007",
                    "--baseline", "base.json", "--diff", cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_diff_survives_line_shifts(tmp_path):
    root = _project(tmp_path)
    _run_cli("bad.py", "--select", "RPL007",
             "--write-baseline", "base.json", cwd=root)
    # Push the finding down three lines; fingerprints are line-free.
    (root / "bad.py").write_text("# leading\n# comment\n# block\n" + _BAD_ONE)
    proc = _run_cli("bad.py", "--select", "RPL007",
                    "--baseline", "base.json", "--diff", cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_diff_fails_on_new_finding_only(tmp_path):
    root = _project(tmp_path)
    _run_cli("bad.py", "--select", "RPL007",
             "--write-baseline", "base.json", cwd=root)
    (root / "bad.py").write_text(_BAD_TWO)
    proc = _run_cli("bad.py", "--select", "RPL007",
                    "--baseline", "base.json", "--diff",
                    "--format", "json", cwd=root)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    # Only the g() finding is new; the baselined f() one is filtered.
    assert len(doc["violations"]) == 1
    assert doc["violations"][0]["line"] == 5  # the g() definition


def test_diff_without_baseline_is_a_usage_error(tmp_path):
    root = _project(tmp_path)
    proc = _run_cli("bad.py", "--diff", cwd=root)
    assert proc.returncode == 2
    assert "--baseline" in proc.stderr


def test_diff_with_missing_baseline_file_errors(tmp_path):
    root = _project(tmp_path)
    proc = _run_cli("bad.py", "--baseline", "nope.json", "--diff", cwd=root)
    assert proc.returncode == 2


# -- incremental cache ------------------------------------------------------

def test_cache_round_trip_preserves_findings(tmp_path):
    root = _project(tmp_path)
    cold = _run_cli("bad.py", "--select", "RPL007", "--format", "json",
                    "--cache", "lint.cache", cwd=root)
    warm = _run_cli("bad.py", "--select", "RPL007", "--format", "json",
                    "--cache", "lint.cache", cwd=root)
    assert cold.returncode == warm.returncode == 1
    assert json.loads(cold.stdout)["violations"] == \
        json.loads(warm.stdout)["violations"]
    cache_doc = json.loads((root / "lint.cache").read_text())
    assert cache_doc  # persisted and well-formed


def test_cache_invalidates_on_content_change(tmp_path):
    root = _project(tmp_path)
    _run_cli("bad.py", "--select", "RPL007", "--cache", "lint.cache",
             cwd=root)
    (root / "bad.py").write_text("def f(xs=None):\n    return xs or []\n")
    proc = _run_cli("bad.py", "--select", "RPL007", "--cache", "lint.cache",
                    cwd=root)
    assert proc.returncode == 0, proc.stdout


def test_cache_invalidates_on_rule_selection_change(tmp_path):
    root = _project(tmp_path)
    _run_cli("bad.py", "--select", "RPL007", "--cache", "lint.cache",
             cwd=root)
    # Same tree, different config key: RPL007 deselected, so clean.
    proc = _run_cli("bad.py", "--select", "RPL001", "--cache", "lint.cache",
                    cwd=root)
    assert proc.returncode == 0, proc.stdout
