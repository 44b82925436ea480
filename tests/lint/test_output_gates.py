"""What the CLI writes and how it exits: the report file and parse errors."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_BAD_ONE = "def f(xs=[]):\n    return xs\n"


def _run_cli(*argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})


def _project(tmp_path, source=_BAD_ONE):
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
    (tmp_path / "bad.py").write_text(source)
    return tmp_path


def test_cli_writes_report_to_output_file(tmp_path):
    root = _project(tmp_path)
    out = tmp_path / "lint.json"
    proc = _run_cli("bad.py", "--select", "RPL007", "--format", "json",
                    "--output", str(out), cwd=root)
    assert proc.returncode == 1
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert [v["code"] for v in doc["violations"]] == ["RPL007"]


def test_cli_reports_parse_errors_with_exit_2(tmp_path):
    root = _project(tmp_path, source="def broken(:\n")
    proc = _run_cli("bad.py", "--format", "json", cwd=root)
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["ok"] is False
    assert doc["errors"] and doc["errors"][0].startswith("bad.py:")
