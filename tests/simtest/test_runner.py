"""Running schedules under the oracle library, and the break modes.

The break modes are the oracle library's self-test: each deliberately
re-introduces a protocol bug the paper's design rules out, and the
matching oracle must catch it.  These seeds were found by probing and
are deterministic, so the assertions are exact.
"""

from __future__ import annotations

import pytest

from repro.simtest.runner import (BREAK_MODES, apply_break_mode,
                                  run_schedule, trace_hash, trace_lines)
from repro.simtest.schedule import generate_schedule

from tests.conftest import make_system


def test_clean_run_produces_verdict_and_hash():
    result = run_schedule(generate_schedule(0, 4))
    assert result.ok
    assert result.oracle_names() == []
    assert len(result.trace_hash) == 64
    assert result.ops_succeeded > 0
    assert result.system is None  # not kept by default


def test_keep_system_and_canonical_trace():
    result = run_schedule(generate_schedule(0, 2), keep_system=True)
    assert result.system is not None
    lines = trace_lines(result.system)
    assert lines
    # Message ids are process-global counters; they must never reach the
    # canonical rendering or replay hashing breaks across processes.
    assert all("msg_id" not in line for line in lines)
    assert trace_hash(result.system) == result.trace_hash


def test_unknown_break_mode_rejected():
    with pytest.raises(ValueError, match="unknown break mode"):
        apply_break_mode(make_system(), "melt_the_server")
    assert set(BREAK_MODES) == {"skip_flush", "ack_expiring", "steal_early",
                                "blind_unfence", "blind_reassert",
                                "no_demand_escalate", "skip_reply_stamp",
                                "zombie_parked"}


def test_skip_flush_caught_by_flush_oracle():
    result = run_schedule(generate_schedule(5, 20, break_mode="skip_flush"))
    assert "expected-failure-flush" in result.oracle_names()


def test_steal_early_caught_by_theorem_oracle():
    result = run_schedule(generate_schedule(2, 4, break_mode="steal_early"))
    assert "theorem-3.1" in result.oracle_names()


def test_steal_early_caught_live_by_lock_compatibility():
    # Seed 1 makes the premature steal visible in the live lock tables,
    # proving the mid-run checker is actually wired into the event loop.
    # (Re-found at 4 steps when PR 23 halved the datagrams of a grant:
    # at 6 the steal no longer lands while the victim still holds.)
    result = run_schedule(generate_schedule(1, 4, break_mode="steal_early"))
    assert "lock-compatibility" in result.oracle_names()
    assert run_schedule(generate_schedule(1, 4)).ok


def test_break_mode_without_faults_stays_clean():
    # Sabotage alone is not a failure: with no fault steps, no lease
    # ever times out, so the broken paths are never exercised.
    sch = generate_schedule(0, 4, break_mode="skip_flush").with_steps(())
    assert run_schedule(sch).ok
