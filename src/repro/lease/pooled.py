"""Coalesced lease bookkeeping for flyweight (parked) clients.

A parked client — registered in the :class:`repro.client.pool.ClientPool`
but not yet built as a :class:`~repro.client.node.StorageTankClient`
— may still hold a lease, seeded for it by the workload (E-scale gives
the whole idle population one).  The full client tracks its lease with
a standing daemon process and per-phase timers; a million parked
clients cannot afford a million of those.

:class:`PooledLeaseService` keeps the *only* lease fact a parked client
needs — "does my lease still stand" — in one flat numpy column indexed
by client slot, plus the slots grouped by deadline.  ``seed`` records
the whole population once; from then on exactly **one** kernel
:class:`~repro.sim.events.Timeout` is armed, for the earliest pending
deadline.  When it fires, every due group is swept in one pass — a
handful of array operations per deadline, whatever its population —
and the next one is armed.  A slot dropped by ``lapse`` is masked out
when its group comes due.

Safety framing (paper §3.2): a parked client has never been built, so
it holds no dirty data, no locks and no in-flight operations; letting
its lease lapse in absentia requires no flush, no quiesce and no
materialization, and the expiry sweep is pure bookkeeping.  This
mirrors the paper's scaling claim: the server is passive and the
*client* side of an idle lease costs O(1) amortized, so system cost
tracks transactions, not population.

Times here are **global** sim seconds: the parked record stores a
conservative (latest-possible) lapse instant, so the sweep never needs
the client's local clock — which does not exist until the client is
built.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import numpy.typing as npt

from repro.sim.events import Event, Timeout
from repro.sim.kernel import Simulator

__all__ = ["PooledLeaseService"]

_Slots = npt.NDArray[np.intp]

#: Sorted positions ``seed`` gathers at a time to find deadline edges:
#: 144 KiB of scratch, against 8 B per slot for a whole sorted copy.
_EDGE_BLOCK = 1 << 14


def _edges(exp: npt.NDArray[np.float64], order: _Slots, start: int,
           stop: int) -> Tuple[_Slots, List[float]]:
    """The positions in ``start+1 .. stop-1`` of the sorted ``order``
    where the deadline changes, and the deadline each one starts.

    Its own frame, so one block's gathered deadlines are freed before
    the next block's are gathered.
    """
    run = exp[order[start:stop]]
    edges = np.flatnonzero(run[1:] != run[:-1]) + 1
    return edges + start, run[edges].tolist()


class PooledLeaseService:
    """Bulk lease-lapse tracking for flyweight client slots.

    ``seed(expiries)`` records, once, that slot ``i`` holds a lease
    until global time ``expiries[i]``; ``lapse(idx)`` drops one record
    immediately (the client was built and tracks its own lease from
    then on).  ``expired`` counts the records the sweep let lapse.
    Constructing the service schedules nothing.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: True while the slot holds an unexpired lease record
        self._held: npt.NDArray[np.bool_] = np.zeros(0, dtype=np.bool_)
        #: (deadline, slots) groups not yet swept, latest first
        self._pending: List[Tuple[float, _Slots]] = []
        self._seeded = False
        self.expired = 0

    @property
    def held(self) -> int:
        """Slots holding a lease record (an empty service stays truthy)."""
        return int(np.count_nonzero(self._held))

    def holds_lease(self, idx: int) -> bool:
        """True while slot ``idx`` has an unexpired lease record.

        A negative slot raises :class:`ValueError` (numpy would alias
        it from the end), here and in :meth:`lapse`.
        """
        if idx < 0:
            raise ValueError(f"slot must be >= 0, got {idx}")
        return idx < len(self._held) and bool(self._held[idx])

    def seed(self, expiries: npt.ArrayLike) -> None:
        """Record a lease for slots ``0 .. n-1`` lapsing at global times
        ``expiries`` (a past one lapses at the current instant).

        One unstable sort groups the slots by deadline; the order of
        slots inside a group is free, because the sweep lapses a whole
        group at once.  The group edges are found walking that order in
        blocks of :data:`_EDGE_BLOCK`, so seeding holds the argument,
        the order and the held flags but no sorted copy, and leaves
        ``expiries`` as it was.  A service is seeded at most once: a
        second call raises :class:`RuntimeError`.
        """
        if self._seeded:
            raise RuntimeError("PooledLeaseService is already seeded")
        exp = np.asarray(expiries, dtype=np.float64)
        if exp.ndim != 1:
            raise ValueError(f"expiries must be 1-d, got shape {exp.shape}")
        self._seeded = True
        self._held = np.ones(exp.size, dtype=np.bool_)
        if not exp.size:
            return
        order = np.argsort(exp)
        deadlines: List[float] = [float(exp[order[0]])]
        cuts: List[_Slots] = []
        for lo in range(0, exp.size, _EDGE_BLOCK):
            # One position of overlap compares a block's first deadline
            # with the previous block's last.
            edges, firsts = _edges(exp, order, max(lo - 1, 0),
                                   lo + _EDGE_BLOCK)
            cuts.append(edges)
            deadlines.extend(firsts)
        groups = np.split(order, np.concatenate(cuts))
        self._pending = list(zip(deadlines, groups))[::-1]
        self._arm(deadlines[0])

    def lapse(self, idx: int) -> bool:
        """Drop slot ``idx``'s lease record immediately (the client was
        built and tracks its own lease from then on).

        Returns False if the slot held no lease.  Does not count as an
        expiry.
        """
        if not self.holds_lease(idx):
            return False
        self._held[idx] = False
        return True

    # -- pooled expiry ----------------------------------------------------
    def _arm(self, when: float) -> None:
        """Arm the one kernel timeout for deadline ``when``."""
        delay = when - self.sim.now
        if delay < 0.0:
            delay = 0.0
        Timeout(self.sim, delay)._add_callback(self._sweep)

    def _sweep(self, _event: Event) -> None:
        """Lapse every due group in deadline order, then re-arm once."""
        now = self.sim.now
        pending = self._pending
        held = self._held
        while pending and pending[-1][0] <= now:
            slots = pending.pop()[1]
            due = slots[held[slots]]
            held[due] = False
            self.expired += due.size
        if pending:
            self._arm(pending[-1][0])
