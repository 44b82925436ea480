"""Coalesced lease bookkeeping for flyweight (parked) clients.

A parked client — registered in the :class:`repro.client.pool.ClientPool`
but not yet built as a :class:`~repro.client.node.StorageTankClient`
— may still hold a lease, seeded for it by the workload (E-scale gives
the whole idle population one).  The full client tracks its lease with
a standing daemon process and per-phase timers; a million parked
clients cannot afford a million of those.

:class:`PooledLeaseService` keeps the *only* lease fact a parked client
needs — "when does my lease certainly lapse" — in flat numpy arrays
indexed by client slot, plus a **deadline-bucket index**: a dict from
each distinct deadline to the slots recorded against it, and a small
heap of the distinct deadlines.  It arms exactly **one**
:class:`~repro.sim.timer_pool.TimerPool` entry for the earliest pending
expiry.  When it fires, every due bucket is drained in one sweep — a
handful of array operations per bucket, whatever its population — and
the per-index callback, if one is installed, runs for each lapsed slot.

Superseded records are deleted lazily: a renewal leaves the slot's old
bucket entry behind, and the sweep masks it out because the slot's
recorded expiry has moved past the bucket's deadline.

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

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.sim.timer_pool import TimerPool

__all__ = ["PooledLeaseService"]

_INF = float("inf")

_Slots = npt.NDArray[np.intp]
#: One deadline's slots: those recorded one at a time by ``renew`` and
#: the array chunks recorded by ``renew_many``.
_Bucket = Tuple[List[int], List[_Slots]]


def _check_slot(idx: int) -> None:
    """Refuse a negative slot: numpy would alias it from the end."""
    if idx < 0:
        raise ValueError(f"slot must be >= 0, got {idx}")


def _sorted_unique(slots: _Slots) -> _Slots:
    """Ascending distinct values of ``slots`` (sort, then drop repeats).

    ``np.unique`` hashes integer input, which costs ten times this on
    the few-thousand-slot arrays one bucket holds.
    """
    ordered = np.sort(slots)
    if ordered.size < 2:
        return ordered
    first_of_run = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    return ordered[first_of_run]


class PooledLeaseService:
    """Bulk lease-lapse tracking for flyweight client slots.

    ``ensure_capacity(n)`` sizes the arrays; ``renew(idx, expires_at)``
    records that slot ``idx`` holds a lease until global time
    ``expires_at`` and ``renew_many`` does the same for whole arrays of
    slots; ``lapse(idx)`` drops it immediately (the client was built
    and tracks its own lease from then on).  ``on_expire(idx)`` fires
    once per held lease when its deadline passes, from a single pooled
    timer.
    """

    def __init__(self, timers: TimerPool,
                 on_expire: Optional[Callable[[int], None]] = None) -> None:
        self.timers = timers
        self.on_expire = on_expire
        #: conservative global lapse instant per slot (+inf = no lease)
        self._expiry: npt.NDArray[np.float64] = np.empty(0, dtype=np.float64)
        #: True while the slot holds an unexpired lease record
        self._held: npt.NDArray[np.bool_] = np.empty(0, dtype=np.bool_)
        #: deadline -> slots recorded against it (stale ones included)
        self._buckets: Dict[float, _Bucket] = {}
        #: heap of the distinct deadlines that have a bucket
        self._deadlines: List[float] = []
        self._timer_token: Optional[int] = None
        #: earliest deadline the pooled timer entry is registered for
        self._armed_for = _INF
        self.expired = 0
        self.renewals = 0

    # -- capacity ---------------------------------------------------------
    def ensure_capacity(self, n: int) -> None:
        """Grow the per-slot arrays to hold at least ``n`` slots.

        Growth at least doubles, so slot-at-a-time ``renew`` calls past
        the end stay amortized O(1); a first sizing call allocates
        exactly ``n``.
        """
        have = len(self._expiry)
        if n <= have:
            return
        size = max(n, 2 * have)
        expiry = np.full(size, _INF, dtype=np.float64)
        expiry[:have] = self._expiry
        held = np.zeros(size, dtype=np.bool_)
        held[:have] = self._held
        self._expiry = expiry
        self._held = held

    def __len__(self) -> int:
        """Number of slots currently holding a lease record."""
        return int(np.count_nonzero(self._held))

    def holds_lease(self, idx: int) -> bool:
        """True while slot ``idx`` has an unexpired lease record."""
        _check_slot(idx)
        return idx < len(self._held) and bool(self._held[idx])

    def expiry_of(self, idx: int) -> float:
        """Global lapse instant recorded for slot ``idx`` (+inf if none)."""
        _check_slot(idx)
        return float(self._expiry[idx]) if idx < len(self._expiry) else _INF

    # -- record keeping ---------------------------------------------------
    def renew(self, idx: int, expires_at: float) -> None:
        """Record that slot ``idx`` holds a lease until ``expires_at``.

        Later calls supersede earlier ones; superseded bucket entries
        are discarded lazily during the expiry sweep.  A negative slot
        raises :class:`ValueError` (numpy would alias it from the end),
        here and in every other per-slot method.
        """
        _check_slot(idx)
        self.ensure_capacity(idx + 1)
        self._expiry[idx] = expires_at
        self._held[idx] = True
        self.renewals += 1
        self._bucket(expires_at)[0].append(idx)
        if expires_at < self._armed_for:
            self._arm(expires_at)

    def renew_many(self, indices: npt.ArrayLike,
                   expiries: npt.ArrayLike) -> None:
        """Record leases for many slots at once.

        Equivalent to ``renew(i, e)`` for each pair of ``indices`` and
        ``expiries`` in order (a slot named twice keeps its last
        expiry), but costs one unstable sort of the expiries and one
        bucket chunk per distinct deadline instead of a Python-level
        step per slot.  The order of slots inside a chunk is free: the
        sweep sorts each due bucket, which alone fixes the
        ``(deadline, slot)`` lapse order.  ``indices`` equal to
        ``arange(n)`` are written as slices; any other array pays for
        finding each slot's last occurrence.  A negative slot raises
        :class:`ValueError` before anything is recorded.
        """
        idx = np.asarray(indices, dtype=np.intp)
        exp = np.asarray(expiries, dtype=np.float64)
        if idx.shape != exp.shape or idx.ndim != 1:
            raise ValueError("indices and expiries must be 1-d and equally "
                             f"long, got shapes {idx.shape} and {exp.shape}")
        n = idx.size
        if n == 0:
            return
        order = np.argsort(exp)
        if idx[0] == 0 and idx[-1] == n - 1 and (idx[1:] > idx[:-1]).all():
            # arange(n): slice writes, and the sort order is the slots.
            self.ensure_capacity(n)
            self._expiry[:n] = exp
            self._held[:n] = True
            slots = order
        else:
            # Fancy assignment leaves the winner among repeated indices
            # unspecified: pick each slot's last occurrence explicitly.
            uniq, last_from_end = np.unique(idx[::-1], return_index=True)
            if uniq[0] < 0:
                raise ValueError(f"slots must be >= 0, got {int(uniq[0])}")
            self.ensure_capacity(int(uniq[-1]) + 1)
            self._expiry[uniq] = exp[n - 1 - last_from_end]
            self._held[uniq] = True
            slots = idx[order]
        self.renewals += n

        by_deadline = exp[order]
        cuts = np.flatnonzero(by_deadline[1:] != by_deadline[:-1]) + 1
        deadlines: List[float] = by_deadline[np.r_[0, cuts]].tolist()
        for when, chunk in zip(deadlines, np.split(slots, cuts)):
            self._bucket(when)[1].append(chunk)
        if deadlines[0] < self._armed_for:
            self._arm(deadlines[0])

    def lapse(self, idx: int) -> bool:
        """Drop slot ``idx``'s lease record immediately (the client was
        built and tracks its own lease from then on).

        Returns False if the slot held no lease.  Does *not* run the
        ``on_expire`` callback and does not count as an expiry.
        """
        if not self.holds_lease(idx):
            return False
        self._held[idx] = False
        self._expiry[idx] = _INF
        return True

    # -- pooled expiry ----------------------------------------------------
    def _bucket(self, when: float) -> _Bucket:
        """The bucket for deadline ``when``, created (and its deadline
        queued) on first use."""
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = ([], [])
            heappush(self._deadlines, when)
        return bucket

    def _arm(self, when: float) -> None:
        if self._timer_token is not None:
            self.timers.cancel(self._timer_token)
        self._armed_for = when
        self._timer_token = self.timers.at(when, self._sweep)

    def _sweep(self) -> None:
        """Drain every due bucket in deadline order, then re-arm once.

        A bucket's slots are de-duplicated and sorted, so lapses happen
        in ``(deadline, slot)`` order.  Stale entries — the slot lapsed
        already or was renewed past this deadline — are masked out.
        Without a callback the whole bucket clears in one assignment;
        with one, each slot is re-checked just before its callback so a
        callback may renew or lapse slots later in the same bucket.  A
        callback that records a lease at an already-due deadline has it
        drained later in this same sweep, after the current bucket.
        """
        self._timer_token = None
        self._armed_for = _INF
        now = self.timers.sim.now
        deadlines = self._deadlines
        cb = self.on_expire
        while deadlines and deadlines[0] <= now:
            when = heappop(deadlines)
            singles, chunks = self._buckets.pop(when)
            if singles:
                chunks.append(np.array(singles, dtype=np.intp))
            slots = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            expiry = self._expiry
            held = self._held
            due = _sorted_unique(
                slots[held[slots] & (expiry[slots] <= when)])
            if cb is None:
                held[due] = False
                expiry[due] = _INF
                self.expired += due.size
                continue
            for idx in due.tolist():
                # Through self: a callback may have grown the arrays.
                if self._held[idx] and self._expiry[idx] <= when:
                    self._held[idx] = False
                    self._expiry[idx] = _INF
                    self.expired += 1
                    cb(idx)
        if deadlines:
            self._arm(deadlines[0])
