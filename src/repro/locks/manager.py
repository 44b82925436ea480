"""Server-side lock table: every logical lock of one server.

A grant is (client, byte range, mode) on one object; a whole-file lock
is the range ``FULL``, as Lustre's DLM keeps one resource per object
under an extent policy (PAPERS.md).  A ``CACHED`` grant is whole-file
and kept until demanded back (§3.1); a ``SCOPED`` one is a byte range
held for one operation, whose holder is only probed.  Grants and FIFO
waiter queues are keyed by (object, kind): two conflict domains, with
no branch on the kind in the conflict, FIFO or pump code.  Messaging and
*when* to steal are the server's; the history feeds the offline audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.locks.modes import LockMode, compatible, satisfies


@dataclass(frozen=True)
class ByteRange:
    """Half-open interval ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid range [{self.start}, {self.end})")

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


#: The whole-file extent ``[0, EOF)``: a whole-file lock is a grant on it.
FULL = ByteRange(0, 1 << 63)

#: Grant kinds (see the module docstring).
CACHED = "cached"
SCOPED = "op-scoped"


class Holding(NamedTuple):
    """One live grant."""

    client: str
    rng: ByteRange
    mode: LockMode


class LockGrant(NamedTuple):
    """One entry of the lock history."""

    time: float
    op: str          # "grant" | "release" | "steal" | "downgrade"
    obj: int
    client: str
    mode: LockMode
    rng: ByteRange
    kind: str


@dataclass
class _Waiter:
    client: str
    rng: ByteRange
    mode: LockMode
    callback: Callable[[ByteRange, LockMode], None]


class LockTable:
    """Every grant of one server, with one FIFO waiter queue per
    (object, kind)."""

    def __init__(self, now_fn: Callable[[], float]):
        self._now = now_fn
        self._grants: Dict[Tuple[int, str], List[Holding]] = {}
        self._waiters: Dict[Tuple[int, str], List[_Waiter]] = {}
        self.history: List[LockGrant] = []
        # (client, obj) -> {op: time of its latest cached-lock record},
        # so run-time readers never scan; survives ``clear_volatile`` too.
        self.latest: Dict[Tuple[str, int], Dict[str, float]] = {}
        self.granted = {CACHED: 0, SCOPED: 0}
        self.steals = 0              # both kinds
        # Observers (the V-lease authority tracks per-object leases here).
        self.grant_listeners: List[Callable[[str, int, LockMode], None]] = []
        self.release_listeners: List[Callable[[str, int], None]] = []

    grants = property(lambda self: self.granted[CACHED],
                      doc="Cached (whole-file) grants issued.")
    grants_made = property(lambda self: self.granted[SCOPED],
                           doc="Op-scoped (byte-range) grants issued.")

    def bind_obs(self, obs, node: str) -> None:
        """Mirror grant/steal counts into a metrics registry as callback
        gauges labelled with the owning server's node name."""
        reg = obs.registry
        reg.gauge("locks.grants", "Lock grants issued", labels=("node",),
                  ).labels(node=node).set_function(lambda: self.grants)
        reg.gauge("locks.steals", "Lock steals executed", labels=("node",),
                  ).labels(node=node).set_function(lambda: self.steals)
        reg.gauge("locks.held_objects", "Objects with at least one holder",
                  labels=("node",),
                  ).labels(node=node).set_function(
                      lambda: len({obj for obj, _kind in self._grants}))

    def holders(self, obj: int) -> Dict[str, LockMode]:
        """Current whole-file holders of an object."""
        return {g.client: g.mode for g in self._grants.get((obj, CACHED), ())}

    def holdings(self, client: str, obj: int,
                 kind: str = CACHED) -> List[Holding]:
        """The client's grants on one object."""
        return [g for g in self._grants.get((obj, kind), ())
                if g.client == client]

    def mode_of(self, client: str, obj: int, rng: ByteRange = FULL,
                kind: str = CACHED) -> LockMode:
        """The weakest mode ``client`` holds over *every* byte of ``rng``
        (NONE if any byte is uncovered)."""
        pieces = [rng]
        weakest = LockMode.EXCLUSIVE
        for g in self._grants.get((obj, kind), ()):
            if g.client != client:
                continue
            held, nxt = g.rng, []
            for p in pieces:   # interval tests inline: the hot path
                if held.end <= p.start or p.end <= held.start:
                    nxt.append(p)
                    continue
                if g.mode < weakest:
                    weakest = g.mode
                if p.start < held.start or held.end < p.end:
                    nxt += p.subtract(held)
            pieces = nxt
        return LockMode.NONE if pieces else weakest

    def conflicts_for(self, client: str, obj: int, mode: LockMode,
                      rng: ByteRange = FULL,
                      kind: str = CACHED) -> List[Holding]:
        """Other clients' grants that must yield for this request."""
        return [g for g in self._grants.get((obj, kind), ())
                if g.client != client and g.rng.start < rng.end
                and rng.start < g.rng.end and not compatible(g.mode, mode)]

    def waiting(self, obj: int,
                kind: str = CACHED) -> List[Tuple[str, LockMode]]:
        """(client, mode) for every queued waiter, in queue order."""
        return [(w.client, w.mode) for w in self._waiters.get((obj, kind), ())]

    def other_interest(self, client: str, obj: int,
                       kind: str = CACHED) -> bool:
        """Whether any *other* client holds or awaits a grant on ``obj``
        (the widen-to-extent grant policy widens only when this is
        False — widening under contention manufactures false sharing)."""
        key = (obj, kind)
        return (any(g.client != client for g in self._grants.get(key, ()))
                or any(w.client != client
                       for w in self._waiters.get(key, ())))

    def try_acquire(self, client: str, obj: int, mode: LockMode,
                    rng: ByteRange = FULL, kind: str = CACHED,
                    ) -> Tuple[bool, List[Holding]]:
        """Grant immediately if compatible; otherwise report conflicts.
        A satisfied re-request succeeds idempotently; a grant also needs
        no overlapping earlier waiter of another client (FIFO fairness)."""
        if mode == LockMode.NONE:
            raise ValueError("cannot acquire LockMode.NONE")
        if satisfies(self.mode_of(client, obj, rng, kind), mode):
            return (True, [])
        conflicts = self.conflicts_for(client, obj, mode, rng, kind)
        queued = [w for w in self._waiters.get((obj, kind), ())
                  if w.client != client and w.rng.overlaps(rng)]
        if not conflicts and not queued:
            self._grant(client, obj, mode, rng, kind)
            return (True, [])
        return (False, conflicts)

    def enqueue_waiter(self, client: str, obj: int, mode: LockMode,
                       callback: Callable[[ByteRange, LockMode], None],
                       rng: ByteRange = FULL, kind: str = CACHED) -> None:
        """Queue a blocked request; ``callback(rng, mode)`` fires on grant."""
        self._waiters.setdefault((obj, kind), []).append(
            _Waiter(client, rng, mode, callback))

    def release(self, client: str, obj: int, rng: Optional[ByteRange] = None,
                kind: str = CACHED) -> bool:
        """Give back the client's grants overlapping ``rng`` (all if None);
        a partial overlap splits a grant.  Wakes compatible waiters."""
        if not self._drop((obj, kind), client, rng, "release"):
            return False
        self._pump((obj, kind))
        return True

    def downgrade(self, client: str, obj: int, to: LockMode) -> bool:
        """Weaken a held whole-file lock (X→S); wakes compatible waiters."""
        grants = self._grants.get((obj, CACHED), [])
        for i, g in enumerate(grants):
            if g.client == client and LockMode.NONE < to < g.mode:
                grants[i] = Holding(client, g.rng, to)
                self._record(self._now(), "downgrade", obj, client, to,
                             g.rng, CACHED)
                self._pump((obj, CACHED))
                return True
        return False

    def steal_all(self, client: str) -> List[Tuple[int, Holding]]:
        """Stop honoring every grant the client holds, of both kinds
        (§1.2; safe only when the lease authority says so).  Its queued
        requests are dropped, then waiters on the freed keys are granted."""
        stolen = [(key, g) for key in list(self._grants)
                  for g in self._drop(key, client, None, "steal")]
        self.steals += len(stolen)
        for key, q in list(self._waiters.items()):
            self._waiters[key] = [w for w in q if w.client != client]
        for key in dict.fromkeys(key for key, _g in stolen):
            self._pump(key)
        return [(key[0], g) for key, g in stolen]

    def steal_one(self, client: str, obj: int, kind: str = CACHED) -> bool:
        """Stop honoring a single lock (V-lease per-object revocation)."""
        taken = self._drop((obj, kind), client, None, "steal")
        self.steals += len(taken)
        if taken:
            self._pump((obj, kind))
        return bool(taken)

    def clear_volatile(self) -> None:
        """Server crash: every waiter and every cached grant is lost; the
        history (audit ground truth) survives.  Release listeners fire."""
        for key in list(self._grants):
            # Op-scoped grants survive the crash, as they always have:
            # dropping them safely needs their holders to reassert the
            # ranges inside the restart window, which is not built yet.
            if key[1] == CACHED:
                self._drop(key)
        self._waiters.clear()

    def export_holdings(self, objs: Iterable[int],
                        ) -> List[Tuple[int, str, Holding]]:
        """Hand the live grants on ``objs`` to another table as
        (obj, kind, grant), for a graceful slot handoff.

        A *transfer*, not a release: no history record (the audit's
        open intervals cover the handoff conservatively).  Waiters are
        dropped; their requests fail over and retry at the new owner.
        Release listeners fire so lease pin tables clean up locally.
        """
        exported: List[Tuple[int, str, Holding]] = []
        for obj in objs:
            for kind in (CACHED, SCOPED):
                exported.extend((obj, kind, g)
                                for g in self._drop((obj, kind)))
                self._waiters.pop((obj, kind), None)
        return exported

    def import_holdings(self, entries: Iterable[Tuple[int, str, Holding]],
                        ) -> None:
        """Install exported grants, each recorded as a grant now: the new
        owner's audit trail starts where the old owner's stopped."""
        for obj, kind, (client, rng, mode) in entries:
            if not satisfies(self.mode_of(client, obj, rng, kind), mode):
                self._grant(client, obj, mode, rng, kind)

    def _record(self, time: float, op: str, obj: int, client: str,
                mode: LockMode, rng: ByteRange, kind: str) -> None:
        self.history.append(LockGrant(time, op, obj, client, mode, rng, kind))
        if kind == CACHED:   # the demand loop's activity clock, reassertion
            self.latest.setdefault((client, obj), {})[op] = time

    def _grant(self, client: str, obj: int, mode: LockMode, rng: ByteRange,
               kind: str) -> None:
        key = (obj, kind)
        # The new grant covers rng at `mode`, except where the client
        # already holds something *stronger* (an X island inside an S
        # request keeps its strength).  Weaker/equal own coverage inside
        # rng is superseded; its parts outside rng survive.
        new_pieces = [rng]
        others: List[Holding] = []
        own: List[Holding] = []
        for g in self._grants.get(key, ()):
            if g.client != client:
                others.append(g)
            elif not g.rng.overlaps(rng):
                own.append(g)
            elif g.mode > mode:
                own.append(g)
                new_pieces = [piece for r in new_pieces
                              for piece in r.subtract(g.rng)]
            else:
                own += [Holding(client, piece, g.mode)
                        for piece in g.rng.subtract(rng)]
        own += [Holding(client, piece, mode) for piece in new_pieces]
        # Coalesce the client's adjacent same-mode grants.
        own.sort(key=lambda g: (g.rng.start, g.rng.end))
        merged: List[Holding] = []
        for g in own:
            prev = merged[-1] if merged else None
            if prev and prev.mode == g.mode and prev.rng.end >= g.rng.start:
                merged[-1] = Holding(client, ByteRange(
                    prev.rng.start, max(prev.rng.end, g.rng.end)), g.mode)
            else:
                merged.append(g)
        self._grants[key] = others + merged
        self.granted[kind] += 1
        self._record(self._now(), "grant", obj, client, mode, rng, kind)
        if kind == CACHED:   # the listeners track cached grants only
            for fn in self.grant_listeners:
                fn(client, obj, mode)

    def _drop(self, key: Tuple[int, str], client: Optional[str] = None,
              rng: Optional[ByteRange] = None,
              op: Optional[str] = None) -> List[Holding]:
        """Remove the grants on ``key`` of ``client`` (every client if
        None) overlapping ``rng`` (all if None), record each removed part
        as ``op`` (unless None) and return them; a partial overlap keeps
        the pieces outside ``rng``."""
        kept: List[Holding] = []
        dropped: List[Holding] = []
        for g in self._grants.get(key, ()):
            if (client is not None and g.client != client) or (
                    rng is not None and not g.rng.overlaps(rng)):
                kept.append(g)
            elif rng is None:
                dropped.append(g)
            else:
                dropped.append(Holding(g.client, g.rng.intersect(rng),
                                       g.mode))
                kept += [Holding(g.client, piece, g.mode)
                         for piece in g.rng.subtract(rng)]
        if dropped:
            if kept:
                self._grants[key] = kept
            else:
                del self._grants[key]
            obj, kind = key
            if op is not None:
                now = self._now()
                for g in dropped:
                    self._record(now, op, obj, g.client, g.mode, g.rng, kind)
            if kind == CACHED:   # the listeners track cached grants only
                for g in dropped:
                    for fn in self.release_listeners:
                        fn(g.client, obj)
        return dropped

    def _pump(self, key: Tuple[int, str]) -> None:
        """Grant queued waiters that are now compatible, FIFO."""
        q = self._waiters.get(key)
        if not q:
            return
        obj, kind = key
        while q and not self.conflicts_for(q[0].client, obj, q[0].mode,
                                           q[0].rng, kind):
            w = q.pop(0)
            self._grant(w.client, obj, w.mode, w.rng, kind)
            w.callback(w.rng, w.mode)
        if not q:
            self._waiters.pop(key, None)
