"""Byte-range logical locks.

Storage Tank's locking is *logical* — it names distributed data
structures rather than disk addresses (paper §5).  The whole-file data
lock of :mod:`repro.locks.manager` is the coarsest logical lock; this
module provides the finer-grained variant the Storage Tank design
family used for large shared files: S/X locks over half-open byte
ranges ``[start, end)`` of one object, with the same demand/steal
discipline.

The manager keeps per-object interval lists.  A client's own grants
merge when adjacent/overlapping with an equal mode; partial releases
split grants.  Compatibility is the S/X matrix applied pairwise to
overlapping intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.locks.modes import LockMode, compatible, satisfies


@dataclass(frozen=True)
class ByteRange:
    """Half-open interval ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid range [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Bytes covered."""
        return self.end - self.start

    def overlaps(self, other: "ByteRange") -> bool:
        """Whether the intervals share any byte."""
        return self.start < other.end and other.start < self.end

    def contains(self, other: "ByteRange") -> bool:
        """Whether ``other`` lies entirely inside this range."""
        return self.start <= other.start and other.end <= self.end

    def intersect(self, other: "ByteRange") -> Optional["ByteRange"]:
        """The shared interval, or None."""
        lo, hi = max(self.start, other.start), min(self.end, other.end)
        return ByteRange(lo, hi) if lo < hi else None

    def subtract(self, other: "ByteRange") -> List["ByteRange"]:
        """This range minus ``other`` (0, 1 or 2 pieces)."""
        if not self.overlaps(other):
            return [self]
        out = []
        if self.start < other.start:
            out.append(ByteRange(self.start, other.start))
        if other.end < self.end:
            out.append(ByteRange(other.end, self.end))
        return out


@dataclass(frozen=True)
class RangeGrant:
    """One held range lock."""

    client: str
    rng: ByteRange
    mode: LockMode


@dataclass
class _RangeWaiter:
    client: str
    rng: ByteRange
    mode: LockMode
    callback: Callable[[ByteRange, LockMode], None]


class RangeLockManager:
    """Server-side byte-range lock table for a set of objects."""

    def __init__(self, now_fn: Callable[[], float] = lambda: 0.0):
        self._now = now_fn
        self._grants: Dict[int, List[RangeGrant]] = {}
        self._waiters: Dict[int, List[_RangeWaiter]] = {}
        self.history: List[Tuple[float, str, int, str, ByteRange, LockMode]] = []
        self.grants_made = 0
        self.steals = 0

    # -- queries ------------------------------------------------------------
    def grants_on(self, obj: int) -> List[RangeGrant]:
        """Snapshot of live grants for an object."""
        return list(self._grants.get(obj, []))

    def holdings(self, client: str, obj: int) -> List[RangeGrant]:
        """The client's grants on one object."""
        return [g for g in self._grants.get(obj, []) if g.client == client]

    def mode_over(self, client: str, obj: int, rng: ByteRange) -> LockMode:
        """The weakest mode the client holds over *every* byte of ``rng``
        (NONE if any byte is uncovered)."""
        pieces = [rng]
        weakest = LockMode.EXCLUSIVE
        for g in self.holdings(client, obj):
            nxt = []
            for p in pieces:
                if g.rng.overlaps(p):
                    weakest = min(weakest, g.mode)
                    nxt.extend(p.subtract(g.rng))
                else:
                    nxt.append(p)
            pieces = nxt
        return weakest if not pieces else LockMode.NONE

    def conflicts_for(self, client: str, obj: int, rng: ByteRange,
                      mode: LockMode) -> List[RangeGrant]:
        """Other clients' grants that must yield for this request."""
        return [g for g in self._grants.get(obj, [])
                if g.client != client and g.rng.overlaps(rng)
                and not compatible(g.mode, mode)]

    def waiter_count(self, obj: int) -> int:
        """Queued range requests on an object."""
        return len(self._waiters.get(obj, []))

    def other_interest(self, client: str, obj: int) -> bool:
        """Whether any *other* client holds or awaits a range on ``obj``
        (the widen-to-extent grant policy widens only when this is
        False — widening under contention manufactures false sharing)."""
        if any(g.client != client for g in self._grants.get(obj, [])):
            return True
        return any(w.client != client for w in self._waiters.get(obj, []))

    # -- mutation -----------------------------------------------------------
    def try_acquire(self, client: str, obj: int, rng: ByteRange,
                    mode: LockMode) -> Tuple[bool, List[RangeGrant]]:
        """Grant if compatible with every overlapping grant and no queued
        waiter overlaps (FIFO fairness); else report conflicts."""
        if mode == LockMode.NONE:
            raise ValueError("cannot acquire LockMode.NONE")
        if satisfies(self.mode_over(client, obj, rng), mode):
            return (True, [])
        conflicts = self.conflicts_for(client, obj, rng, mode)
        queued = [w for w in self._waiters.get(obj, [])
                  if w.client != client and w.rng.overlaps(rng)]
        if not conflicts and not queued:
            self._grant(client, obj, rng, mode)
            return (True, [])
        return (False, conflicts)

    def enqueue_waiter(self, client: str, obj: int, rng: ByteRange,
                       mode: LockMode,
                       callback: Callable[[ByteRange, LockMode], None]) -> None:
        """Queue a blocked range request."""
        self._waiters.setdefault(obj, []).append(
            _RangeWaiter(client, rng, mode, callback))

    def release(self, client: str, obj: int,
                rng: Optional[ByteRange] = None) -> bool:
        """Release the client's grants overlapping ``rng`` (all if None).

        A partial overlap splits the grant: only the intersection is
        released.  Returns True if anything was released.
        """
        grants = self._grants.get(obj, [])
        kept: List[RangeGrant] = []
        released = False
        for g in grants:
            if g.client != client or (rng is not None and not g.rng.overlaps(rng)):
                kept.append(g)
                continue
            released = True
            self.history.append((self._now(), "release", obj, client,
                                 g.rng if rng is None else g.rng.intersect(rng),
                                 g.mode))
            if rng is not None:
                for piece in g.rng.subtract(rng):
                    kept.append(RangeGrant(client, piece, g.mode))
        if released:
            if kept:
                self._grants[obj] = kept
            else:
                self._grants.pop(obj, None)
            self._pump(obj)
        return released

    def steal_all(self, client: str) -> List[Tuple[int, RangeGrant]]:
        """Stop honoring every range the client holds (lease expiry)."""
        stolen = []
        for obj in list(self._grants):
            for g in self.holdings(client, obj):
                stolen.append((obj, g))
                self.history.append((self._now(), "steal", obj, client,
                                     g.rng, g.mode))
                self.steals += 1
            self._grants[obj] = [g for g in self._grants[obj]
                                 if g.client != client]
            if not self._grants[obj]:
                self._grants.pop(obj, None)
        for obj, q in list(self._waiters.items()):
            self._waiters[obj] = [w for w in q if w.client != client]
        for obj in {o for o, _ in stolen}:
            self._pump(obj)
        return stolen

    def export_holdings(self, objs: Iterable[int],
                        ) -> List[Tuple[int, str, ByteRange, LockMode]]:
        """Hand the live grants on ``objs`` to another manager, as
        ``LockManager.export_holdings`` does (no history record)."""
        exported: List[Tuple[int, str, ByteRange, LockMode]] = []
        for obj in objs:
            for g in self._grants.pop(obj, ()):
                exported.append((obj, g.client, g.rng, g.mode))
            self._waiters.pop(obj, None)
        return exported

    def import_holdings(
            self, entries: Iterable[Tuple[int, str, ByteRange, LockMode]],
            ) -> None:
        """Install exported grants, each recorded as a grant now."""
        for obj, client, rng, mode in entries:
            if not satisfies(self.mode_over(client, obj, rng), mode):
                self._grant(client, obj, rng, mode)

    # -- internals ------------------------------------------------------------
    def _grant(self, client: str, obj: int, rng: ByteRange,
               mode: LockMode) -> None:
        grants = self._grants.setdefault(obj, [])
        # The new grant covers rng at `mode`, except where the client
        # already holds something *stronger* (an X island inside an S
        # request keeps its strength).  Weaker/equal own coverage inside
        # rng is superseded; its parts outside rng survive.
        new_pieces: List[ByteRange] = [rng]
        kept: List[RangeGrant] = []
        for g in grants:
            if g.client != client or not g.rng.overlaps(rng):
                kept.append(g)
                continue
            if g.mode > mode:
                kept.append(g)
                new_pieces = [piece for r in new_pieces
                              for piece in r.subtract(g.rng)]
            else:
                for piece in g.rng.subtract(rng):
                    kept.append(RangeGrant(client, piece, g.mode))
        for piece in new_pieces:
            kept.append(RangeGrant(client, piece, mode))
        self._grants[obj] = self._normalized(client, kept)
        self.grants_made += 1
        self.history.append((self._now(), "grant", obj, client, rng, mode))

    @staticmethod
    def _normalized(client: str, grants: List[RangeGrant]) -> List[RangeGrant]:
        """Coalesce the client's adjacent same-mode grants."""
        own = sorted((g for g in grants if g.client == client),
                     key=lambda g: (g.rng.start, g.rng.end))
        others = [g for g in grants if g.client != client]
        merged: List[RangeGrant] = []
        for g in own:
            if (merged and merged[-1].mode == g.mode
                    and merged[-1].rng.end >= g.rng.start):
                prev = merged.pop()
                merged.append(RangeGrant(client,
                                         ByteRange(prev.rng.start,
                                                   max(prev.rng.end, g.rng.end)),
                                         g.mode))
            else:
                merged.append(g)
        return others + merged

    def _pump(self, obj: int) -> None:
        q = self._waiters.get(obj)
        if not q:
            return
        progressed = True
        while progressed and q:
            progressed = False
            w = q[0]
            if not self.conflicts_for(w.client, obj, w.rng, w.mode):
                q.pop(0)
                self._grant(w.client, obj, w.rng, w.mode)
                w.callback(w.rng, w.mode)
                progressed = True
        if not q:
            self._waiters.pop(obj, None)
