"""Engine behaviour: suppressions, config, reporters and the CLI."""

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_source, load_config
from repro.lint.config import in_scope
from repro.lint.report import render_json, render_rule_list, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _config():
    return load_config(explicit=REPO_ROOT / "pyproject.toml")


# -- suppression comments ---------------------------------------------------

def test_inline_suppression_silences_only_its_line():
    source = (FIXTURES / "suppressed.py").read_text()
    result = lint_source(source, path="src/repro/fixture_mod.py",
                         config=_config(), select=["RPL005"])
    assert len(result.violations) == 1
    assert "t0 == t1" in result.violations[0].message


def test_file_level_suppression_silences_whole_file():
    source = (FIXTURES / "suppressed_file.py").read_text()
    result = lint_source(source, path="src/repro/fixture_mod.py",
                         config=_config(), select=["RPL005"])
    assert result.violations == []


def test_suppression_is_code_specific():
    source = "def f(t0, t1, xs=[]):\n    return t0 == t1  # repro-lint: ignore[RPL007]\n"
    result = lint_source(source, path="src/repro/fixture_mod.py",
                         config=_config(), select=["RPL005", "RPL007"])
    # the ignore names RPL007 but the finding on that line is RPL005
    assert sorted(v.code for v in result.violations) == ["RPL005", "RPL007"]


def test_bare_ignore_suppresses_every_code_on_the_line():
    source = "def f(t0, t1):\n    return t0 == t1  # repro-lint: ignore\n"
    result = lint_source(source, path="src/repro/fixture_mod.py",
                         config=_config(), select=["RPL005"])
    assert result.violations == []


# -- config -----------------------------------------------------------------

def test_pyproject_config_excludes_fixture_dir():
    cfg = _config()
    assert cfg.is_excluded("tests/lint/fixtures/rpl001_fires.py")
    assert not cfg.is_excluded("tests/lint/test_rules.py")


def test_scope_matches_path_components_not_string_prefixes():
    assert in_scope("src/repro/sim/clock.py", ["src/repro"])
    assert not in_scope("src/repro-extras/x.py", ["src/repro"])
    assert in_scope("anything/at/all.py", None)


# -- reporters --------------------------------------------------------------

def test_json_report_shape():
    source = (FIXTURES / "rpl007_fires.py").read_text()
    result = lint_source(source, path="src/repro/fixture_mod.py",
                         config=_config(), select=["RPL007"])
    doc = json.loads(render_json(result))
    assert doc["version"] == "repro-lint/1.0"
    assert doc["files_checked"] == 1
    assert doc["ok"] is False
    assert doc["counts"]["RPL007"] == len(doc["violations"])
    first = doc["violations"][0]
    assert {"code", "message", "path", "line", "column"} <= set(first)


def test_text_report_mentions_rule_code_and_summary():
    source = (FIXTURES / "rpl007_fires.py").read_text()
    result = lint_source(source, path="src/repro/fixture_mod.py",
                         config=_config(), select=["RPL007"])
    text = render_text(result, statistics=True)
    assert "RPL007" in text
    assert "violation" in text


def test_rule_list_covers_all_shipped_rules():
    listing = render_rule_list()
    for code in ["RPL001", "RPL002", "RPL003", "RPL004", "RPL005",
                 "RPL006", "RPL007", "RPL008", "RPL009", "RPL011",
                 "RPL013"]:
        assert code in listing
    # Retired: the declared request schemas enforce what it inferred.
    assert "RPL010" not in listing


# -- CLI --------------------------------------------------------------------

def _run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})


def test_cli_exit_1_on_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
    proc = _run_cli(str(bad), "--select", "RPL007",
                    "--config", str(tmp_path / "pyproject.toml"))
    assert proc.returncode == 1
    assert "RPL007" in proc.stdout


def test_cli_json_output_parses(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
    proc = _run_cli(str(bad), "--select", "RPL007", "--format", "json",
                    "--config", str(tmp_path / "pyproject.toml"))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["counts"] == {"RPL007": 1}


def test_cli_exit_0_on_clean_file(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("def f(xs=None):\n    return xs or []\n")
    proc = _run_cli(str(good))
    assert proc.returncode == 0, proc.stderr


def test_cli_exit_2_on_unknown_rule(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    proc = _run_cli(str(good), "--select", "RPL999")
    assert proc.returncode == 2
    assert "RPL999" in proc.stderr


def test_cli_exit_2_on_missing_path():
    proc = _run_cli("no/such/dir")
    assert proc.returncode == 2


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    assert "RPL004" in proc.stdout
