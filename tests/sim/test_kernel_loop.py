"""The kernel's one dispatch loop against a reference step loop.

``step``, ``run`` (bounded or not) and ``run_until_event`` all go
through :meth:`Simulator._loop`.  The reference below is the plain loop
they replaced — pop, check, ``Event._fire`` — kept here as the
specification: on random programs with interrupts, failed events and
every kind of bound, both must fire the same events in the same order
and raise the same exceptions.
"""

import random
from heapq import heappop

import pytest

from repro.sim import Interrupt, SimulationError, Simulator

INF = float("inf")


class _Boom(Exception):
    pass


# -- the reference loop ------------------------------------------------------
def _ref_step(sim):
    if not sim._heap:
        raise SimulationError("step() on an empty schedule")
    t, _key, event = heappop(sim._heap)
    if t < sim._now:
        raise SimulationError("schedule corruption: time went backwards")
    sim._now = t
    event._fire()


def _ref_run(sim, until=None, max_events=None):
    count = 0
    while sim._heap:
        if until is not None and sim._heap[0][0] > until:
            sim._now = until
            break
        if max_events is not None and count >= max_events:
            raise SimulationError(f"run() exceeded max_events={max_events}")
        _ref_step(sim)
        count += 1
    else:
        if until is not None and until > sim._now:
            sim._now = until
    return sim._now


def _ref_run_until_event(sim, event, hard_limit=INF):
    while not event.processed:
        if not sim._heap:
            raise SimulationError("schedule drained before awaited event fired")
        if sim._heap[0][0] > hard_limit:
            raise SimulationError(f"awaited event did not fire by t={hard_limit}")
        _ref_step(sim)
    return event.value


REFERENCE = {"step": _ref_step, "run": _ref_run,
             "run_until_event": _ref_run_until_event}
KERNEL = {"step": Simulator.step, "run": Simulator.run,
          "run_until_event": Simulator.run_until_event}


# -- random programs -----------------------------------------------------------
def _build(seed, log):
    """A simulator loaded with a random program whose every resumption
    is logged; returns it with its processes and shared events."""
    rng = random.Random(seed)
    sim = Simulator()
    procs = []
    shared = [sim.event() for _ in range(rng.randint(1, 4))]

    def worker(i, plan):
        for step, (op, arg) in enumerate(plan):
            try:
                if op == "sleep":
                    yield sim.timeout(arg)
                elif op == "wait":
                    yield shared[arg]
                elif op == "any":
                    yield sim.any_of([sim.timeout(arg), shared[0]])
                elif op == "all":
                    yield sim.all_of([sim.timeout(arg), sim.timeout(arg / 2)])
                elif op == "fire":
                    ev = shared[arg]
                    if not ev.triggered:
                        if rng.random() < 0.3:
                            ev.fail(_Boom(f"shared{arg}"))
                        else:
                            ev.succeed(f"v{i}.{step}", delay=rng.choice((0.0, 0.5)))
                    yield sim.timeout(0.0)
                elif op == "poke":
                    target = procs[arg % len(procs)]
                    if target.is_alive and target is not procs[i]:
                        target.interrupt(f"from{i}")
                    yield sim.timeout(0.25)
                elif op == "raise":
                    raise _Boom(f"worker{i}")
                log.append((sim.now, i, step, op))
            except Interrupt as exc:
                log.append((sim.now, i, step, "interrupted", exc.cause))
            except _Boom as exc:
                log.append((sim.now, i, step, "boom", str(exc)))
                if rng.random() < 0.5:
                    raise
        return i

    for i in range(rng.randint(2, 6)):
        plan = []
        for _ in range(rng.randint(1, 12)):
            op = rng.choice(("sleep", "sleep", "wait", "any", "all", "fire",
                             "poke", "raise"))
            if op in ("sleep", "any", "all"):
                arg = rng.choice((0.0, 0.1, 0.5, 1.0, 2.5))
            else:
                arg = rng.randrange(len(shared) if op in ("wait", "fire")
                                    else 8)
            plan.append((op, arg))
        procs.append(sim.process(worker(i, plan), name=f"w{i}"))
    return sim, procs


def _drive(seed, loops):
    """Run the program for ``seed`` through ``loops`` (reference or
    kernel) with a random sequence of calls; the transcript of fired
    work, return values and exceptions."""
    log = []
    sim, procs = _build(seed, log)
    rng = random.Random(seed ^ 0x5EED)
    for _ in range(rng.randint(1, 8)):
        call = rng.choice(("step", "run", "run", "run_until_event"))
        try:
            if call == "step":
                out = loops["step"](sim)
            elif call == "run":
                bounds = {}
                if rng.random() < 0.6:
                    bounds["until"] = sim.now + rng.choice((0.0, 0.3, 1.0, 4.0))
                if rng.random() < 0.5:
                    bounds["max_events"] = rng.randint(0, 12)
                out = loops["run"](sim, **bounds)
            else:
                limit = rng.choice((INF, sim.now + 0.5, sim.now + 3.0))
                out = loops["run_until_event"](sim, rng.choice(procs), limit)
            log.append(("returned", call, out, sim.now))
        except Exception as exc:  # the transcript compares them
            log.append(("raised", call, type(exc).__name__, str(exc), sim.now))
    log.append(("end", sim.now, len(sim._heap)))
    # Leave no cyclic garbage for the leak tests: close what still runs.
    for proc in procs:
        proc.gen.close()
    sim._heap.clear()
    return log


@pytest.mark.parametrize("seed", range(200))
def test_dispatch_loop_matches_the_reference_step_loop(seed):
    assert _drive(seed, KERNEL) == _drive(seed, REFERENCE)


def test_the_random_programs_reach_every_exit():
    """The differential test is only as good as its coverage: across
    the seeds, every bound fires and every kind of failure escapes."""
    seen = set()
    for seed in range(200):
        for entry in _drive(seed, KERNEL):
            if entry[0] == "raised":
                seen.add(entry[3].split("=")[0].split(" by ")[0])
            elif entry[0] == "returned":
                seen.add(entry[1])
            elif len(entry) > 3 and entry[3] == "interrupted":
                seen.add("interrupted")
    assert {"run() exceeded max_events", "awaited event did not fire",
            "schedule drained before awaited event fired",
            "step() on an empty schedule", "shared0", "interrupted",
            "step", "run", "run_until_event"} <= seen, seen


def test_an_awaited_event_already_fired_runs_nothing():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.step()
    sim.timeout(1.0)
    assert sim.run_until_event(ev) == "x"
    assert sim.now == 0.0 and sim.pending_events == 1
