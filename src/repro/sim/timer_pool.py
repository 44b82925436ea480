"""Pooled timers: many logical deadlines behind O(1) kernel heap entries.

The kernel heap is priced per entry: a million sleeping clients that
each keep a private :class:`~repro.sim.events.Timeout` armed (lease
renewal, retry backoff, writeback period) cost a million heap tuples and
a million event objects even though almost none of them will fire before
being rescheduled.  A :class:`TimerPool` coalesces any number of logical
deadlines into *one* armed kernel timeout — the one for the earliest
deadline — and re-arms itself as deadlines fire, are cancelled, or an
earlier one arrives.

Design notes:

- Logical deadlines live in a plain Python heap of ``(when, token)``
  pairs plus a token -> callback dict.  Cancellation is *lazy*: the heap
  entry stays behind and is discarded when popped (the standard
  lazy-deletion idiom), so ``cancel`` is O(1).
- The pool keeps one *current* kernel :class:`~repro.sim.events.Timeout`
  armed for its earliest deadline.  Inserting an earlier deadline arms
  a fresh timeout and leaves the superseded one in the kernel heap as a
  *stale* arm.  A stale arm fires once, drains whatever is due at that
  instant (usually nothing) and re-arms nothing unless a callback it
  ran registered a deadline earlier than the current arm's.  Each
  "new-earliest" insertion therefore costs at most one extra kernel
  timeout (the current arm is later re-armed for the deadline its
  stale predecessor still covers): total arms are bounded by the
  number of distinct deadlines plus the number of new-earliest
  insertions, never by the number of logical timers.
- Firing drains *every* due entry in deadline order, then re-arms once.
  A thousand clients whose leases lapse in the same instant cost one
  kernel event, not a thousand.

Callbacks run inside the kernel's event dispatch, exactly like an
ordinary timeout waiter: they must not block, and anything they
schedule lands after the current instant's already-queued events.

Every built system owns one pool as the timer substrate of its parked
clients' leases (:class:`~repro.lease.pooled.PooledLeaseService`).
Constructing it schedules nothing: a system that never seeds a pooled
lease pays no kernel event for it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.events import Event, Timeout
from repro.sim.kernel import Simulator

__all__ = ["TimerPool"]

_INF = float("inf")


class TimerPool:
    """Coalesce many logical deadlines into one armed kernel timeout.

    ``at``/``after`` register a zero-argument callback for a deadline
    and return an integer token; ``cancel(token)`` forgets it in O(1).
    However many entries are pending, the pool keeps one current
    kernel timeout armed, plus one stale timeout per insertion that
    superseded it; a stale one fires once and starts no chain of its
    own.
    """

    def __init__(self, sim: Simulator, name: str = "timer-pool") -> None:
        self.sim = sim
        self.name = name
        self._heap: List[Tuple[float, int]] = []
        self._entries: Dict[int, Callable[[], None]] = {}
        self._next_token = 0
        #: earliest deadline a kernel timeout is currently armed for
        self._armed_for = _INF
        #: that timeout; any other one that fires is a stale arm
        self._armed: Optional[Event] = None
        #: true while _on_fire drains (defers re-arming to drain end)
        self._draining = False
        #: counters for observability / tests
        self.fired = 0
        self.cancelled = 0
        self.kernel_arms = 0

    # -- registration -----------------------------------------------------
    def at(self, when: float, fn: Callable[[], None]) -> int:
        """Register ``fn`` to run at absolute sim time ``when``.

        A deadline in the past runs at the current instant (delay 0).
        Returns a token for :meth:`cancel`.
        """
        self._next_token += 1
        token = self._next_token
        self._entries[token] = fn
        heappush(self._heap, (when, token))
        if when < self._armed_for and not self._draining:
            self._arm(when)
        return token

    def after(self, delay: float, fn: Callable[[], None]) -> int:
        """Register ``fn`` to run ``delay`` seconds from now."""
        return self.at(self.sim.now + delay, fn)

    def cancel(self, token: int) -> bool:
        """Forget a pending entry; returns False if it already fired
        (or was already cancelled).  O(1): the heap entry is discarded
        lazily when it surfaces."""
        if self._entries.pop(token, None) is None:
            return False
        self.cancelled += 1
        return True

    # -- inspection -------------------------------------------------------
    def __len__(self) -> int:
        """Number of pending (not yet fired or cancelled) entries."""
        return len(self._entries)

    def next_deadline(self) -> float:
        """Earliest pending deadline, or +inf when the pool is empty."""
        heap = self._heap
        entries = self._entries
        while heap and heap[0][1] not in entries:
            heappop(heap)
        return heap[0][0] if heap else _INF

    # -- kernel coupling --------------------------------------------------
    def _arm(self, when: float) -> None:
        """Arm one kernel timeout for deadline ``when``."""
        self._armed_for = when
        self.kernel_arms += 1
        delay = when - self.sim.now
        if delay < 0.0:
            delay = 0.0
        self._armed = Timeout(self.sim, delay)
        self._armed._add_callback(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        """Drain every due entry in deadline order, then re-arm if the
        earliest pending deadline has no arm covering it.

        A stale arm (superseded by an earlier insertion) takes this same
        path but leaves the current arm's bookkeeping alone, so it
        re-arms only for a deadline earlier than the current arm's.
        """
        if event is self._armed:
            self._armed = None
            self._armed_for = _INF
        self._draining = True
        try:
            now = self.sim.now
            heap = self._heap
            entries = self._entries
            while heap and heap[0][0] <= now:
                _, token = heappop(heap)
                fn = entries.pop(token, None)
                if fn is None:
                    continue  # lazily-cancelled entry
                self.fired += 1
                fn()
        finally:
            self._draining = False
        nxt = self.next_deadline()
        if nxt < self._armed_for:
            self._arm(nxt)
