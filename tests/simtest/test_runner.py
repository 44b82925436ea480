"""Running schedules under the oracle library, and the break modes.

The break modes are the oracle library's self-test: each deliberately
re-introduces a protocol bug the paper's design rules out, and the
matching oracle must catch it.  These seeds were found by probing and
are deterministic, so the assertions are exact.
"""

from __future__ import annotations

import pytest

from repro.simtest.oracles import Oracle
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
    # Re-found at seed 7 when a parked transaction's outcome stopped
    # travelling as a server-initiated RESULT: seed 5's schedule no
    # longer reaches the skipped flush.
    result = run_schedule(generate_schedule(7, 20, break_mode="skip_flush"))
    assert "expected-failure-flush" in result.oracle_names()
    assert run_schedule(generate_schedule(7, 20)).ok


def test_steal_early_caught_by_theorem_oracle():
    result = run_schedule(generate_schedule(2, 4, break_mode="steal_early"))
    assert "theorem-3.1" in result.oracle_names()


def test_steal_early_caught_live_by_lock_compatibility():
    # The premature steal lets another client adopt the victim's lock
    # while the victim's lease is still live, and the fold reports it at
    # that grant.  (Re-found at 4 steps when a grant's datagrams were
    # halved, and at seed 15 when a parked grant lost its receipt ACK and
    # RESULT: at seed 1 the steal no longer lands while the victim still
    # holds.)
    result = run_schedule(generate_schedule(15, 4, break_mode="steal_early"))
    assert "lock-compatibility" in result.oracle_names()
    assert run_schedule(generate_schedule(15, 4)).ok


def test_break_mode_without_faults_stays_clean():
    # Sabotage alone is not a failure: with no fault steps, no lease
    # ever times out, so the broken paths are never exercised.
    sch = generate_schedule(0, 4, break_mode="skip_flush").with_steps(())
    assert run_schedule(sch).ok


class _Repeats(Oracle):
    """Three findings of one breach, two of them at one time."""

    name = "repeats"

    def check_final(self, system):
        return [self._violation(t, "c1", "breach") for t in (1.0, 1.0, 2.0)]


def test_final_violations_dedup_by_key_and_time():
    result = run_schedule(generate_schedule(0, 2), [_Repeats()])
    assert [(v.message, v.time) for v in result.violations] == [
        ("breach", 1.0), ("breach", 2.0)]


def test_a_repeated_unnacked_request_is_reported_each_time():
    # c3's un-NACKed lock.intent requests carry one message; each is a
    # finding of its own.
    result = run_schedule(generate_schedule(8, 20, break_mode="ack_expiring",
                                            adversaries=2))
    times = [round(v.time, 3) for v in result.violations
             if v.message == "request 'lock.intent' from timed-out client "
                             "'c3' was not NACKed"]
    assert times[:2] == [7.567, 8.37]
