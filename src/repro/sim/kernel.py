"""The simulator event loop.

Deterministic: the schedule is a heap keyed by ``(time, key)`` where
``key`` encodes priority band and insertion sequence, so same-time
events fire in insertion order regardless of hashing or interning.  All
randomness in a simulation flows through
:class:`repro.sim.rng.RandomStreams`, so a run is fully reproducible
from its seed.

Hot-path design notes: heap entries are 3-tuples ``(time, key, event)``
— the old ``(time, priority, seq, event)`` 4-tuple folded its middle
two fields into a single int (priority events keep the bare sequence
number, normal events add :data:`repro.sim.events.NORMAL_BAND`), which
both shrinks the tuple and cuts a comparison level in the heap.
:meth:`Simulator.run` with no bounds (the overwhelmingly common call)
uses a closure-free tight loop with bound-local ``heappop`` and an
inline single-waiter dispatch that skips the generic
:meth:`Event._fire` machinery.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable, List, Optional, Tuple

from repro.sim.events import (NORMAL_BAND, AllOf, AnyOf, Event, FirstOf,
                              SimulationError, Timeout)
from repro.sim.process import Process, ProcessGenerator


class Simulator:
    """Discrete-event simulator with a float timeline in seconds."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (global/"true" time) in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """Total events ever pushed onto the kernel heap (monotonic)."""
        return self._seq

    @property
    def pending_events(self) -> int:
        """Entries currently on the kernel heap (including stale ones)."""
        return len(self._heap)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGenerator, name: Optional[str] = None,
                target: Optional[Event] = None) -> Process:
        """Spawn a generator as a process; returns the process event.
        ``target``: the wait ``gen`` was already advanced to."""
        return Process(self, gen, name=name, target=target)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event firing when any child succeeds."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event firing when all children succeed."""
        return AllOf(self, list(events))

    def first_of(self, events: Iterable[Event]) -> FirstOf:
        """Race event whose value is the first child event to fire."""
        return FirstOf(self, list(events))

    # -- scheduling (kernel internal) ------------------------------------
    def _schedule(self, event: Event, delay: float, priority: bool = False) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        # priority events (interrupts) sort ahead of same-time normals
        heappush(self._heap, (self._now + delay, seq if priority else NORMAL_BAND + seq, event))

    # -- main loop -----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Pop and fire exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        t, _key, event = heappop(self._heap)
        if t < self._now:
            raise SimulationError("schedule corruption: time went backwards")
        self._now = t
        event._fire()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the loop until the schedule drains or ``until`` is reached.

        Returns the simulation time when the loop stopped.  ``max_events``
        is a safety valve for runaway simulations.
        """
        if until is None and max_events is None:
            # Tight unbounded loop: bound locals, inline single-waiter
            # dispatch (equivalent to Event._fire with one registrant and
            # no failure — the dominant case by far).
            heap = self._heap
            pop = heappop
            while heap:
                t, _key, event = pop(heap)
                self._now = t
                waiter = event._waiter
                if waiter is not None and event._exc is None and not event.callbacks:
                    event._waiter = None
                    event.callbacks = None
                    event._processed = True
                    waiter(event)
                else:
                    event._fire()
            return self._now

        count = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                break
            if max_events is not None and count >= max_events:
                raise SimulationError(f"run() exceeded max_events={max_events}")
            self.step()
            count += 1
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now

    def run_until_event(self, event: Event, hard_limit: float = float("inf")) -> Any:
        """Run until ``event`` has fired; returns its value."""
        while not event.processed:
            if not self._heap:
                raise SimulationError("schedule drained before awaited event fired")
            if self._heap[0][0] > hard_limit:
                raise SimulationError(f"awaited event did not fire by t={hard_limit}")
            self.step()
        return event.value
