"""CLI surface: exit codes, artifact round-trip, mode exclusivity."""

from __future__ import annotations

import json

import pytest

import repro.simtest.corpus as corpus_mod
from repro.simtest.cli import EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS, main


def test_clean_fuzz_exits_zero(capsys):
    assert main(["--seed", "0", "--steps", "4"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "clean: no oracle violations" in out
    assert "trace_hash=" in out


def test_modes_are_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["--corpus", "--replay", "x.json"])
    assert exc.value.code == EXIT_USAGE


def test_negative_steps_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--steps", "-1"])
    assert exc.value.code == EXIT_USAGE


def test_batch_below_one_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--batch", "0"])
    assert exc.value.code == EXIT_USAGE


def test_replay_missing_artifact_is_usage_error(capsys):
    assert main(["--replay", "/nonexistent/a.json"]) == EXIT_USAGE


def test_replay_with_break_mode_runs_the_knockout(capsys):
    """``--replay ARTIFACT --break-mode M`` replays the pinned schedule
    against the sabotaged system: the artifact's knock-out from the
    command line (exit 1 when the oracles catch the re-broken fix)."""
    import os
    artifact = os.path.join(os.path.dirname(__file__), "artifacts",
                            "intent-parked-grant-missed-epoch.json")
    assert main(["--replay", artifact]) == EXIT_CLEAN
    assert main(["--replay", artifact,
                 "--break-mode", "skip_reply_stamp"]) == EXIT_VIOLATIONS
    assert "lock-compatibility" in capsys.readouterr().out


def test_corpus_mode_clean(capsys):
    assert main(["--corpus"]) == EXIT_CLEAN
    assert "corpus entries clean" in capsys.readouterr().out


def test_batch_prints_replayable_seeds(capsys):
    assert main(["--batch", "2", "--seed", "0", "--steps", "3"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "batch seed 0" in out
    assert "2/2 clean" in out


def test_update_corpus_blesses(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(corpus_mod, "CORPUS_PATH",
                        str(tmp_path / "corpus.json"))
    assert main(["--update-corpus"]) == EXIT_CLEAN
    assert (tmp_path / "corpus.json").exists()
    assert "blessed" in capsys.readouterr().out


def test_broken_daemon_caught_shrunk_and_replayable(tmp_path, capsys):
    """The acceptance-criterion pipeline: a sabotaged lease daemon is
    caught by an oracle, the schedule shrinks to <= 5 fault steps, and
    the artifact replays with an identical trace hash."""
    rc = main(["--seed", "7", "--steps", "20", "--break-mode", "skip_flush",
               "--out", str(tmp_path)])
    assert rc == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "expected-failure-flush" in out
    assert "shrunk" in out

    artifact = tmp_path / "simtest-failure-seed7.json"
    assert artifact.exists()
    doc = json.loads(artifact.read_text())
    assert len(doc["schedule"]["steps"]) <= 5
    assert doc["schedule"]["break_mode"] == "skip_flush"
    assert doc["violations"]

    assert main(["--replay", str(artifact)]) == EXIT_CLEAN
    replay_out = capsys.readouterr().out
    assert "reproduced: trace hash identical" in replay_out
    assert "expected-failure-flush" in replay_out
