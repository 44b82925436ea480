"""Process semantics: yields, returns, interrupts, failures."""

import gc

import pytest

from repro.sim import Interrupt, Process, SimulationError


def test_process_return_value(sim):
    def gen():
        yield sim.timeout(1.0)
        return 99
    proc = sim.process(gen())
    sim.run()
    assert proc.value == 99


def test_process_without_yield_completes(sim):
    def gen():
        return "instant"
        yield  # pragma: no cover - makes this a generator
    proc = sim.process(gen())
    sim.run()
    assert proc.value == "instant"


def test_process_requires_generator(sim):
    with pytest.raises(TypeError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_process_is_alive_lifecycle(sim):
    def gen():
        yield sim.timeout(3.0)
    proc = sim.process(gen())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_uncaught_exception_fails_process(sim):
    def gen():
        yield sim.timeout(1.0)
        raise KeyError("oops")
    proc = sim.process(gen())
    with pytest.raises(KeyError):
        sim.run()
    assert proc.exception is not None


def test_waiting_on_failed_process_reraises(sim):
    def bad():
        yield sim.timeout(1.0)
        raise ValueError("inner")

    caught = []

    def parent():
        p = sim.process(bad())
        try:
            yield p
        except ValueError as exc:
            caught.append(str(exc))
    sim.process(parent())
    sim.run()
    assert caught == ["inner"]


def test_yield_non_event_fails_process(sim):
    def gen():
        yield 42  # type: ignore[misc]
    proc = sim.process(gen())
    with pytest.raises(SimulationError):
        sim.run()
    assert not proc.is_alive


def test_interrupt_delivers_cause(sim):
    log = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(2.0)
        proc.interrupt("reason")
    sim.process(killer())
    sim.run()
    assert log == [(2.0, "reason")]


def test_interrupt_dead_process_raises(sim):
    def gen():
        yield sim.timeout(1.0)
    proc = sim.process(gen())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue(sim):
    log = []

    def sleeper():
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        log.append(sim.now)

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(5.0)
        proc.interrupt()
    sim.process(killer())
    sim.run()
    assert log == [6.0]


def test_stale_target_does_not_double_resume(sim):
    """The pre-interrupt target firing later must not wake the process."""
    resumed = []

    def sleeper():
        try:
            yield sim.timeout(3.0)
        except Interrupt:
            resumed.append("interrupted")
        yield sim.timeout(10.0)
        resumed.append("second")

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt()
    sim.process(killer())
    sim.run()
    # exactly one interrupt, one normal resume; the stale 3.0 timeout is ignored
    assert resumed == ["interrupted", "second"]
    assert sim.now == 11.0


def test_uncaught_interrupt_kills_process_quietly(sim):
    def sleeper():
        yield sim.timeout(100)

    proc = sim.process(sleeper())

    def killer():
        yield sim.timeout(1.0)
        proc.interrupt("die")
    sim.process(killer())
    sim.run()
    assert not proc.is_alive
    assert isinstance(proc.exception, Interrupt)


def test_processes_wait_on_processes(sim):
    def inner():
        yield sim.timeout(2.0)
        return "x"

    out = []

    def outer():
        val = yield sim.process(inner())
        out.append((sim.now, val))
    sim.process(outer())
    sim.run()
    assert out == [(2.0, "x")]


def test_active_process_visible_during_resume(sim):
    seen = []

    def gen():
        seen.append(sim.active_process)
        yield sim.timeout(1.0)
    proc = sim.process(gen())
    sim.run()
    assert seen == [proc]
    assert sim.active_process is None


def test_finished_processes_on_every_exit_path_leave_no_cyclic_garbage(sim):
    """Return, failure and interruption all drop the bound resume
    callback, so a finished process is freed by reference counting."""
    def returns():
        yield sim.timeout(1.0)

    def fails():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def sleeps():
        yield sim.timeout(10.0)

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(20):
            sim.process(returns())
            sim.process(fails()).defuse()
            sim.process(sleeps()).interrupt("stop")
        sim.run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, Process)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []
