"""Event primitives for the discrete-event kernel.

Events are one-shot: they are *triggered* exactly once (either succeeded
with a value or failed with an exception) and then fire their callbacks
when the simulator pops them off the schedule.  Processes wait on events
by ``yield``-ing them; composite events (:class:`AnyOf`, :class:`AllOf`)
let a process wait on several conditions at once.

Hot-path design notes (the kernel is the floor under every experiment,
fuzz batch and benchmark):

- every event class uses ``__slots__``;
- the single-waiter case (one process blocked on one event — by far the
  common shape) bypasses the callbacks list entirely via the ``_waiter``
  slot, letting the run loop resume the process without allocating or
  iterating a list;
- :class:`Timeout` skips the generic ``__init__``/``_schedule`` call
  chain and pushes itself straight onto the schedule heap;
- the transport needs no race event: each request attempt waits on one
  plain event that its reply or its retry timer ends
  (:mod:`repro.net.control`).

None of this changes event *ordering*: the schedule key sequence and the
callback registration order are exactly what the pre-optimization kernel
produced, which is what keeps pinned trace hashes bit-identical.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

#: Added to the schedule-key sequence number for normal (non-priority)
#: events; priority events (interrupts) keep the bare sequence number so
#: they sort ahead of same-time normals.  Far above any realistic event
#: count, so keys never collide across the two bands.
NORMAL_BAND = 1 << 62


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (double-trigger, bad yields...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`repro.sim.process.Process.interrupt`.

    The interrupted process receives the interrupt at its current yield
    point and may catch it to clean up (the paper's clients use this to
    abort in-flight retries when a lease transitions phase).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event goes through three states: *pending* (just created),
    *triggered* (value/exception decided, scheduled on the heap) and
    *processed* (callbacks ran).  Waiting processes register callbacks —
    a single waiting process occupies the ``_waiter`` fast slot instead
    of the ``callbacks`` list.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered",
                 "_processed", "_defused", "_waiter")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        # A failed event whose exception was delivered to some waiter is
        # "defused"; undefused failures surface when the event fires.
        self._defused = False
        self._waiter: Optional[Callable[["Event"], None]] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event outcome has been decided."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value (or raises the failure exception)."""
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exc

    # -- waiter registration (kernel internal) ----------------------------
    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register a fire callback, filling the single-waiter fast slot
        when this event has no registrants yet (preserves registration
        order: the waiter slot always fires before the callbacks list)."""
        cbs = self.callbacks
        if self._waiter is None and not cbs:
            self._waiter = cb
        elif cbs is None:
            self.callbacks = [cb]
        else:
            cbs.append(cb)

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule it ``delay`` from now."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiters will see ``exc`` raised."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        self.sim._schedule(self, delay)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel does not re-raise it."""
        self._defused = True

    # -- kernel hook ---------------------------------------------------------
    def _fire(self) -> None:
        """Run the waiter and callbacks.  Called once by the simulator loop."""
        self._processed = True
        waiter, self._waiter = self._waiter, None
        callbacks, self.callbacks = self.callbacks, None
        if waiter is not None:
            waiter(self)
        if callbacks:
            for cb in callbacks:
                cb(self)
        exc = self._exc
        if exc is not None and not self._defused:
            raise exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds ``delay`` simulated seconds after creation
    (or after an earlier instant ``since``).

    Construction is the kernel's hottest allocation site, so it writes
    every slot directly and pushes itself onto the schedule heap without
    going through ``Event.__init__``/``Simulator._schedule``.  The
    callbacks list stays ``None`` until a second registrant appears.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 since: Optional[float] = None) -> None:
        """``since``: the earlier instant ``delay`` is measured from, so
        the deadline is the one a timer armed then would hold, to the
        bit; a deadline already past fires now."""
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        self._defused = False
        self._waiter = None
        self.delay = delay
        seq = sim._seq + 1
        sim._seq = seq
        if since is None:
            when = sim._now + delay
        else:
            when = max(since + delay, sim._now)
        heappush(sim._heap, (when, NORMAL_BAND + seq, self))


class _Condition(Event):
    """Base for AnyOf/AllOf: waits on a set of events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        check = self._check
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
            if ev._processed:
                check(ev)
            else:
                ev._add_callback(check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev._processed and ev._exc is None}

    def _on_child_failure(self, event: Event) -> bool:
        if event._exc is not None:
            event.defuse()
            if not self._triggered:
                self.fail(event._exc)
            return True
        return False


class AnyOf(_Condition):
    """Succeeds as soon as any child event succeeds (fails on first failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._on_child_failure(event):
            return
        if not self._triggered:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Succeeds once every child event has succeeded."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._on_child_failure(event):
            return
        self._count += 1
        if self._count == len(self.events) and not self._triggered:
            self.succeed(self._collect())
