"""Event primitives: trigger-once, values, failures, conditions."""

import pytest

from repro.sim import AllOf, AnyOf, Event, SimulationError, Simulator, Timeout


def test_event_initial_state(sim):
    ev = sim.event()
    assert not ev.triggered and not ev.processed


def test_succeed_carries_value(sim):
    ev = sim.event()
    ev.succeed(42)
    assert ev.triggered
    assert ev.value == 42


def test_value_before_trigger_raises(sim):
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_double_succeed_raises(sim):
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_fail_then_succeed_raises(sim):
    ev = sim.event()
    ev.fail(RuntimeError("x"))
    ev.defuse()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_fail_requires_exception(sim):
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_failed_value_raises_original(sim):
    ev = sim.event()
    ev.fail(ValueError("boom"))
    ev.defuse()
    sim.run()
    with pytest.raises(ValueError):
        _ = ev.value


def test_undefused_failure_surfaces_in_run(sim):
    ev = sim.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError):
        sim.run()


def test_callbacks_fire_with_event(sim):
    got = []
    ev = sim.event()
    ev.callbacks.append(lambda e: got.append(e.value))
    ev.succeed("hello")
    sim.run()
    assert got == ["hello"]


def test_ok_property(sim):
    ev = sim.event()
    ev.succeed()
    assert ev.ok
    ev2 = sim.event()
    ev2.fail(RuntimeError())
    ev2.defuse()
    assert not ev2.ok


# -- conditions --------------------------------------------------------------

def test_all_of_waits_for_every_child(sim):
    results = {}

    def worker(name, d):
        yield sim.timeout(d)
        return name

    def parent():
        p1 = sim.process(worker("a", 2))
        p2 = sim.process(worker("b", 5))
        res = yield sim.all_of([p1, p2])
        results["vals"] = sorted(res.values())
        results["t"] = sim.now

    sim.process(parent())
    sim.run()
    assert results == {"vals": ["a", "b"], "t": 5.0}


def test_any_of_fires_on_first(sim):
    results = {}

    def worker(name, d):
        yield sim.timeout(d)
        return name

    def parent():
        p1 = sim.process(worker("fast", 1))
        p2 = sim.process(worker("slow", 9))
        res = yield sim.any_of([p1, p2])
        results["vals"] = list(res.values())
        results["t"] = sim.now

    sim.process(parent())
    sim.run()
    assert results["t"] == 1.0
    assert results["vals"] == ["fast"]


def test_empty_all_of_fires_immediately(sim):
    done = []

    def parent():
        res = yield sim.all_of([])
        done.append(res)
    sim.process(parent())
    sim.run()
    assert done == [{}]


def test_condition_rejects_cross_simulator_events(sim):
    other = Simulator()
    with pytest.raises(SimulationError):
        sim.all_of([other.event()])


def test_any_of_includes_already_processed(sim):
    collected = []

    def parent():
        t = sim.timeout(1.0, value="tick")
        yield t  # process it
        res = yield sim.any_of([t])
        collected.append(res[t])
    sim.process(parent())
    sim.run()
    assert collected == ["tick"]


def test_all_of_propagates_child_failure(sim):
    caught = []

    def failer():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        p = sim.process(failer())
        try:
            yield sim.all_of([p, sim.timeout(5.0)])
        except ValueError as exc:
            caught.append(str(exc))
    sim.process(parent())
    sim.run()
    assert caught == ["child died"]


def test_timeout_since_an_earlier_instant(sim):
    """A timeout measured from an earlier instant fires at exactly the
    time one armed then would; one whose deadline has passed fires now."""
    sim.run(until=0.3)
    armed_then = 0.1 + 0.7
    fired = []

    def waiter(ev):
        yield ev
        fired.append(sim.now)
    sim.process(waiter(Timeout(sim, 0.7, since=0.1)))
    sim.process(waiter(Timeout(sim, 0.1, since=0.1)))
    sim.run()
    assert fired == [0.3, armed_then]
