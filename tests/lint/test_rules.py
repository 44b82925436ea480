"""Firing / non-firing fixture pairs for every shipped rule.

Each rule gets a pair of on-disk fixtures under ``fixtures/``: one that
must trigger the rule and one that must stay silent.  Fixtures are
linted in-memory through :func:`repro.lint.lint_source` with a pretend
path inside the rule's scope, so the pair exercises exactly the rule
under test and nothing else.
"""

from pathlib import Path

import pytest

from repro.lint import lint_source, load_config

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

#: (rule code, fixture stem, pretend path placing the fixture in scope)
CASES = [
    ("RPL001", "rpl001", "src/repro/sim/fixture_mod.py"),
    ("RPL002", "rpl002", "src/repro/server/fixture_mod.py"),
    ("RPL003", "rpl003", "src/repro/client/fixture_mod.py"),
    ("RPL004", "rpl004", "src/repro/fixture_mod.py"),
    ("RPL005", "rpl005", "src/repro/fixture_mod.py"),
    ("RPL006", "rpl006", "src/repro/server/fixture_mod.py"),
    ("RPL007", "rpl007", "src/repro/fixture_mod.py"),
    ("RPL008", "rpl008", "src/repro/client/fixture_mod.py"),
    ("RPL009", "rpl009", "src/repro/server/fixture_mod.py"),
    ("RPL010", "rpl010", "src/repro/server/fixture_mod.py"),
    ("RPL011", "rpl011", "src/repro/server/fixture_mod.py"),
    ("RPL012", "rpl012", "src/repro/client/fixture_mod.py"),
    ("RPL013", "rpl013", "src/repro/net/control.py"),
]


def _lint_fixture(name: str, code: str, pretend_path: str):
    source = (FIXTURES / name).read_text()
    config = load_config(explicit=REPO_ROOT / "pyproject.toml")
    return lint_source(source, path=pretend_path,
                       config=config, select=[code])


@pytest.mark.parametrize("code,stem,pretend", CASES,
                         ids=[c[0] for c in CASES])
def test_rule_fires_on_bad_fixture(code, stem, pretend):
    result = _lint_fixture(f"{stem}_fires.py", code, pretend)
    assert not result.errors
    assert result.violations, f"{code} did not fire on {stem}_fires.py"
    assert {v.code for v in result.violations} == {code}


@pytest.mark.parametrize("code,stem,pretend", CASES,
                         ids=[c[0] for c in CASES])
def test_rule_silent_on_clean_fixture(code, stem, pretend):
    result = _lint_fixture(f"{stem}_clean.py", code, pretend)
    assert not result.errors
    assert result.violations == [], (
        f"{code} false positives: "
        + "; ".join(v.format() for v in result.violations))


def test_rpl001_counts_every_wall_clock_site():
    result = _lint_fixture("rpl001_fires.py", "RPL001",
                           "src/repro/sim/fixture_mod.py")
    # time.time(), datetime.now() and random.random() each get a finding.
    assert result.counts["RPL001"] >= 3


def test_rpl004_flags_augmented_assignment():
    result = _lint_fixture("rpl004_fires.py", "RPL004",
                           "src/repro/fixture_mod.py")
    assert any("augmented" in v.message for v in result.violations)


def test_rpl008_reports_the_tainted_sink_call():
    result = _lint_fixture("rpl008_fires.py", "RPL008",
                           "src/repro/client/fixture_mod.py")
    assert len(result.violations) == 1
    assert "local_timeout" in result.violations[0].message


def test_rpl009_reports_blocking_and_generator_reach():
    result = _lint_fixture("rpl009_fires.py", "RPL009",
                           "src/repro/server/fixture_mod.py")
    messages = " | ".join(v.message for v in result.violations)
    assert "time.sleep" in messages
    assert "generator" in messages


def test_rpl010_reports_both_drift_directions():
    result = _lint_fixture("rpl010_fires.py", "RPL010",
                           "src/repro/server/fixture_mod.py")
    messages = " | ".join(v.message for v in result.violations)
    assert "dead write" in messages and "debug_tag" in messages
    assert "never-set read" in messages and "origin" in messages


def test_rpl012_flags_the_acquire_site():
    result = _lint_fixture("rpl012_fires.py", "RPL012",
                           "src/repro/client/fixture_mod.py")
    assert len(result.violations) == 1
    # The finding anchors at the leaked _enter() call.
    line_text = (FIXTURES / "rpl012_fires.py").read_text().splitlines()[
        result.violations[0].line - 1]
    assert "_enter" in line_text


def test_rpl013_reports_each_second_site():
    result = _lint_fixture("rpl013_fires.py", "RPL013",
                           "src/repro/net/control.py")
    messages = " | ".join(v.message for v in result.violations)
    assert "on_reply" in messages          # the second dispatch loop
    assert "reply_stamp" in messages       # the second stamp reader
    assert "sent outside `_reply`" in messages
    # Outside the transport module, building a reply at all is a finding
    # (the clean fixture builds them in `_reply`, as the transport does).
    elsewhere = _lint_fixture("rpl013_clean.py", "RPL013",
                              "src/repro/server/fixture_mod.py")
    assert {v.message.split("(")[0] for v in elsewhere.violations} == {
        "`Ack", "`Nack"}


def test_rpl006_reports_unknown_group_and_missing_kinds():
    result = _lint_fixture("rpl006_fires.py", "RPL006",
                           "src/repro/server/fixture_mod.py")
    messages = " | ".join(v.message for v in result.violations)
    assert "no-such-group" in messages
    assert "LOCK_RELEASE" in messages and "LOCK_DOWNGRADE" in messages
