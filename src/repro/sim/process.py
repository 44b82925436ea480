"""Generator-based simulation processes.

A process wraps a Python generator that ``yield``-s :class:`Event`
instances.  The process resumes when the yielded event fires, receiving
the event's value (or its exception raised at the yield point).  A
process is itself an event that triggers when the generator returns, so
processes can wait on each other.

Hot-path design notes: the resume callback is bound once per process
(``_resume_cb``) rather than materialized on every yield, bootstrap and
interrupt events are built by direct slot writes, and registration goes
through :meth:`Event._add_callback` so a lone waiting process sits in
the event's ``_waiter`` fast slot.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from repro.sim.events import Event, Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine on the simulation timeline.

    Triggered (as an event) with the generator's return value when it
    finishes, or failed with its uncaught exception.
    """

    __slots__ = ("gen", "name", "_target", "_alive", "_resume_cb")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator,
                 name: Optional[str] = None,
                 target: Optional[Event] = None) -> None:
        """``target`` is the wait ``gen`` has already been advanced to by
        its caller (a handler run to its first ``yield`` inside a
        delivery): the process resumes when it fires, and no bootstrap
        event is spent."""
        super().__init__(sim)
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        self._alive = True
        self._resume_cb: Callable[[Event], None] = self._resume
        if target is not None:
            self._wait_on(target)
            return
        # Bootstrap: resume once the init event fires.
        init = Event.__new__(Event)
        init.sim = sim
        init.callbacks = None
        init._value = None
        init._exc = None
        init._triggered = True
        init._processed = False
        init._defused = False
        init._waiter = self._resume_cb
        sim._schedule(init, 0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a dead process is an error.  The process is detached
        from whatever event it was waiting on; that event may still fire
        later and is then ignored.
        """
        if not self._alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        ev = Event.__new__(Event)
        ev.sim = self.sim
        ev.callbacks = None
        ev._value = None
        ev._exc = Interrupt(cause)
        ev._triggered = True
        ev._processed = False
        ev._defused = True
        ev._waiter = self._resume_cb
        self.sim._schedule(ev, 0.0, priority=True)

    # -- resumption ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if not self._alive:
            return
        exc = event._exc
        if exc is not None and isinstance(exc, Interrupt):
            # Detach from the current wait target; its later firing must
            # not resume this process a second time.
            tgt = self._target
            if tgt is not None:
                cb = self._resume_cb
                if tgt._waiter is cb:
                    tgt._waiter = None
                elif tgt.callbacks is not None and cb in tgt.callbacks:
                    tgt.callbacks.remove(cb)
        elif self._target is not None and event is not self._target:
            return  # stale wake-up from a pre-interrupt target
        self._target = None

        sim = self.sim
        sim._active_process = self
        try:
            if exc is not None:
                # Delivering the exception to this process counts as
                # handling it at the kernel level.
                event._defused = True
                nxt = self.gen.throw(exc)
            else:
                nxt = self.gen.send(event._value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except Interrupt as interrupt_exc:
            # An uncaught interrupt terminates the process quietly: the
            # interruptor asked for exactly this.
            self._alive = False
            self._triggered = True
            self._exc = interrupt_exc
            self._defused = True
            sim._schedule(self, 0.0)
            return
        except BaseException as fail_exc:
            self._alive = False
            self.fail(fail_exc)
            return
        finally:
            sim._active_process = None

        if (isinstance(nxt, Event) and nxt.sim is sim
                and not nxt._processed and nxt._exc is None):
            # The common case of ``_wait_on``, inlined (one call per resume).
            self._target = nxt
            nxt._add_callback(self._resume_cb)
        else:
            self._wait_on(nxt)

    def _wait_on(self, nxt: Any) -> None:
        """Park on ``nxt``, the event the generator just yielded."""
        sim = self.sim
        if not isinstance(nxt, Event) or nxt.sim is not sim:
            self._alive = False
            self.fail(SimulationError(f"process {self.name!r} yielded invalid target {nxt!r}"))
            return

        if nxt._processed:
            # The target already fired; resume via a proxy on the next round.
            proxy = Event.__new__(Event)
            proxy.sim = sim
            proxy.callbacks = None
            proxy._triggered = True
            proxy._processed = False
            proxy._value = nxt._value
            proxy._exc = nxt._exc
            proxy._defused = False
            if nxt._exc is not None:
                nxt._defused = True
                proxy._defused = True
            proxy._waiter = self._resume_cb
            self._target = proxy
            sim._schedule(proxy, 0.0)
        else:
            if nxt._exc is not None:
                nxt._defused = True
            self._target = nxt
            nxt._add_callback(self._resume_cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self._alive else 'dead'}>"
