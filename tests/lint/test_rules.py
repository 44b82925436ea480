"""Firing / non-firing fixture pairs for every shipped rule.

Each rule gets a pair of on-disk fixtures under ``fixtures/``: one that
must trigger the rule and one that must stay silent.  Fixtures are
linted in-memory through :func:`repro.lint.lint_source` with a pretend
path inside the rule's scope, so the pair exercises exactly the rule
under test and nothing else.
"""

from pathlib import Path

import pytest

from repro.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule code, fixture stem, pretend path placing the fixture in scope)
CASES = [
    ("RPL001", "rpl001", "src/repro/sim/fixture_mod.py"),
    ("RPL002", "rpl002", "src/repro/server/fixture_mod.py"),
    ("RPL003", "rpl003", "src/repro/client/fixture_mod.py"),
    ("RPL005", "rpl005", "src/repro/fixture_mod.py"),
    ("RPL007", "rpl007", "src/repro/fixture_mod.py"),
    ("RPL008", "rpl008", "src/repro/client/fixture_mod.py"),
]


def _lint_fixture(name: str, code: str, pretend_path: str):
    source = (FIXTURES / name).read_text()
    return lint_source(source, path=pretend_path, select=[code])


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
    # time.time(), datetime.now(), random.random() and time.sleep() each
    # get a finding; the sleep's names it a wait.
    assert result.counts["RPL001"] == 4
    assert [v.message.split(" `")[0] for v in result.violations
            if "sleep" in v.message] == ["wall-clock wait"]


def test_rpl008_reports_the_tainted_sink_call():
    result = _lint_fixture("rpl008_fires.py", "RPL008",
                           "src/repro/client/fixture_mod.py")
    lines = (FIXTURES / "rpl008_fires.py").read_text().splitlines()
    flagged = [lines[v.line - 1].strip() for v in result.violations]
    # The straight-line laundering and the one through a nested waiter()
    # closure each fire once.
    assert flagged == [
        "self.endpoint.local_timeout(budget)",
        "yield self.endpoint.local_timeout(max(wait_local, 0.0))"]
    assert all("local_timeout" in v.message for v in result.violations)

