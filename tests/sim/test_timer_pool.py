"""TimerPool: many logical deadlines behind O(1) kernel heap entries."""

import pytest

from repro.sim import Simulator, TimerPool


def test_fires_in_deadline_order():
    sim = Simulator()
    pool = TimerPool(sim)
    fired = []
    pool.at(3.0, lambda: fired.append("c"))
    pool.at(1.0, lambda: fired.append("a"))
    pool.at(2.0, lambda: fired.append("b"))
    sim.run(until=10.0)
    assert fired == ["a", "b", "c"]


def test_after_is_relative_to_now():
    sim = Simulator()
    pool = TimerPool(sim)
    seen = []

    def stepper():
        yield sim.timeout(5.0)
        pool.after(2.0, lambda: seen.append(sim.now))
    sim.process(stepper())
    sim.run(until=10.0)
    assert seen == [7.0]


def test_cancel_prevents_fire_and_is_idempotent():
    sim = Simulator()
    pool = TimerPool(sim)
    fired = []
    token = pool.at(1.0, lambda: fired.append("x"))
    assert pool.cancel(token) is True
    assert pool.cancel(token) is False  # already cancelled
    sim.run(until=5.0)
    assert fired == []
    assert pool.cancelled == 1
    assert pool.fired == 0


def test_same_instant_deadlines_coalesce_into_one_kernel_event():
    sim = Simulator()
    pool = TimerPool(sim)
    fired = []
    for i in range(1000):
        pool.at(5.0, lambda i=i: fired.append(i))
    # One armed kernel timeout regardless of 1000 logical deadlines.
    assert pool.kernel_arms == 1
    assert sim.pending_events == 1
    sim.run(until=10.0)
    assert len(fired) == 1000
    assert pool.fired == 1000
    assert pool.kernel_arms == 1  # nothing left to re-arm for


def test_kernel_entries_stay_bounded_for_many_deadlines():
    sim = Simulator()
    pool = TimerPool(sim)
    # Register in increasing deadline order: only the first arm is needed.
    for i in range(10_000):
        pool.at(1.0 + i * 0.001, lambda: None)
    assert len(pool) == 10_000
    assert sim.pending_events == 1
    assert pool.kernel_arms == 1


def test_earlier_insertion_rearms_and_stale_arm_is_a_noop():
    sim = Simulator()
    pool = TimerPool(sim)
    fired = []
    pool.at(8.0, lambda: fired.append("late"))
    pool.at(2.0, lambda: fired.append("early"))  # supersedes the 8.0 arm
    assert pool.kernel_arms == 2
    sim.run(until=5.0)
    assert fired == ["early"]
    sim.run(until=10.0)
    assert fired == ["early", "late"]


def test_callback_may_register_next_deadline():
    sim = Simulator()
    pool = TimerPool(sim)
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 3:
            pool.after(1.0, tick)
    pool.at(1.0, tick)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_past_deadline_runs_at_current_instant():
    sim = Simulator()
    pool = TimerPool(sim)
    fired = []

    def stepper():
        yield sim.timeout(5.0)
        pool.at(1.0, lambda: fired.append(sim.now))  # already in the past
    sim.process(stepper())
    sim.run(until=10.0)
    assert fired == [5.0]


def test_next_deadline_skips_cancelled_entries():
    sim = Simulator()
    pool = TimerPool(sim)
    t1 = pool.at(1.0, lambda: None)
    pool.at(2.0, lambda: None)
    pool.cancel(t1)
    assert pool.next_deadline() == pytest.approx(2.0)
    assert len(pool) == 1


def test_stale_arm_fires_once_and_starts_no_chain_of_its_own():
    """Regression: a superseded arm used to reset the armed-for marker
    when it fired and re-arm, so every new-earliest insertion left a
    permanent second chain of kernel timeouts (23 arms here)."""
    sim = Simulator()
    pool = TimerPool(sim)
    fired = []
    for t in range(2, 13):
        pool.at(float(t), lambda t=t: fired.append(t))
    pool.at(1.0, lambda: fired.append(1))  # supersedes the 2.0 arm
    assert pool.kernel_arms == 2
    sim.run(until=20.0)
    assert fired == list(range(1, 13))
    # One arm per distinct deadline plus the one duplicate for 2.0.
    assert pool.kernel_arms == 13
    assert sim.events_scheduled == 13
    assert sim.pending_events == 0
