"""Server-side lock table.

Pure data-structure logic: the surrounding server node is responsible
for messaging (demanding locks back from holders over the control
network) and for *when* stealing is safe (the lease authority's job).
The manager records every grant/release/steal with a timestamp — that
history is one input of the offline consistency audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Tuple

from repro.locks.modes import LockMode, compatible, satisfies
from repro.locks.ranges import ByteRange, RangeLockManager


@dataclass(frozen=True)
class LockGrant:
    """One entry of the lock history."""

    time: float
    op: str          # "grant" | "release" | "steal" | "downgrade"
    obj: int
    client: str
    mode: LockMode


@dataclass
class _Waiter:
    client: str
    mode: LockMode
    callback: Callable[[int, LockMode], None]


# ---------------------------------------------------------------------------
# intent grants (Lustre-style extent locks, PAPERS.md)
# ---------------------------------------------------------------------------
# An intent request may be granted more than it asked for, never less:
# safety stays with the lock tables and the lease discipline, which see
# ordinary ``try_acquire`` calls for whatever span is granted.

def coalesce_ranges(requests: List[Tuple[ByteRange, LockMode]],
                    ) -> List[Tuple[ByteRange, LockMode]]:
    """Merge one batch's adjacent/overlapping same-mode ranges into the
    spans actually acquired: one interval-list entry and one waiter
    queue slot per contiguous run instead of one per sub-request."""
    ordered = sorted(requests, key=lambda t: (t[0].start, t[0].end))
    merged: List[Tuple[ByteRange, LockMode]] = []
    for rng, mode in ordered:
        if (merged and merged[-1][1] == mode
                and merged[-1][0].end >= rng.start):
            prev_rng, prev_mode = merged.pop()
            merged.append((ByteRange(prev_rng.start,
                                     max(prev_rng.end, rng.end)),
                           prev_mode))
        else:
            merged.append((rng, mode))
    return merged


def widen_range(ranges: RangeLockManager, client: str, obj: int,
                rng: ByteRange, size_bytes: int) -> ByteRange:
    """The range granted for a requested one: the whole file extent
    ``[0, max(end, size))`` when nobody else holds or awaits the object,
    so the client's next request is already covered; the request itself
    under contention, where widening would only manufacture false
    sharing."""
    if ranges.other_interest(client, obj):
        return rng
    return ByteRange(0, max(rng.end, size_bytes))


class LockManager:
    """Lock table with FIFO waiter queues."""

    def __init__(self, now_fn: Callable[[], float]):
        self._now = now_fn
        # obj -> {client -> mode}
        self._holders: Dict[int, Dict[str, LockMode]] = {}
        self._waiters: Dict[int, List[_Waiter]] = {}
        self.history: List[LockGrant] = []
        # (client, obj) -> {op: time of its latest history record}, so
        # run-time readers never scan; survives ``clear_volatile`` too.
        self.latest: Dict[Tuple[str, int], Dict[str, float]] = {}
        self.grants = 0
        self.steals = 0
        # Observers (the V-lease authority tracks per-object leases here).
        self.grant_listeners: List[Callable[[str, int, LockMode], None]] = []
        self.release_listeners: List[Callable[[str, int], None]] = []

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
                      lambda: sum(1 for h in self._holders.values() if h))

    # -- queries ------------------------------------------------------------
    def holders(self, obj: int) -> Dict[str, LockMode]:
        """Current holders of an object."""
        return dict(self._holders.get(obj, {}))

    def mode_of(self, client: str, obj: int) -> LockMode:
        """The mode ``client`` holds on ``obj`` (NONE if none)."""
        return self._holders.get(obj, {}).get(client, LockMode.NONE)

    def objects_held_by(self, client: str) -> List[Tuple[int, LockMode]]:
        """Everything a client currently holds."""
        out = []
        for obj, holders in self._holders.items():
            m = holders.get(client)
            if m:
                out.append((obj, m))
        return out

    def conflicts_for(self, client: str, obj: int, mode: LockMode,
                      ) -> List[Tuple[str, LockMode]]:
        """Holders that must yield before ``client`` can get ``mode``."""
        out = []
        for holder, held in self._holders.get(obj, {}).items():
            if holder != client and not compatible(held, mode):
                out.append((holder, held))
        return out

    def waiter_count(self, obj: int) -> int:
        """Length of the wait queue for an object."""
        return len(self._waiters.get(obj, []))

    def waiting(self, obj: int) -> List[Tuple[str, LockMode]]:
        """(client, mode) for every queued waiter, in queue order."""
        return [(w.client, w.mode) for w in self._waiters.get(obj, [])]

    # -- mutation --------------------------------------------------------------
    def try_acquire(self, client: str, obj: int, mode: LockMode,
                    ) -> Tuple[bool, List[Tuple[str, LockMode]]]:
        """Grant immediately if compatible; otherwise report conflicts.

        Re-requests of an already-satisfied mode succeed idempotently.
        A grant also requires no *earlier waiter* to exist (to avoid
        starving queued requests behind opportunistic ones).
        """
        if mode == LockMode.NONE:
            raise ValueError("cannot acquire LockMode.NONE")
        held = self.mode_of(client, obj)
        if satisfies(held, mode):
            return (True, [])
        conflicts = self.conflicts_for(client, obj, mode)
        queued = [w for w in self._waiters.get(obj, []) if w.client != client]
        if not conflicts and not queued:
            self._grant(client, obj, mode)
            return (True, [])
        return (False, conflicts)

    def enqueue_waiter(self, client: str, obj: int, mode: LockMode,
                       callback: Callable[[int, LockMode], None]) -> None:
        """Queue a blocked request; ``callback(obj, mode)`` fires on grant."""
        self._waiters.setdefault(obj, []).append(_Waiter(client, mode, callback))

    def cancel_waiter(self, client: str, obj: int) -> bool:
        """Drop a queued request (client gave up); True if one existed."""
        q = self._waiters.get(obj, [])
        for i, w in enumerate(q):
            if w.client == client:
                q.pop(i)
                return True
        return False

    def release(self, client: str, obj: int) -> bool:
        """Give back a lock voluntarily; wakes compatible waiters."""
        holders = self._holders.get(obj, {})
        mode = holders.pop(client, None)
        if mode is None:
            return False
        self._record(self._now(), "release", obj, client, mode)
        if not holders:
            self._holders.pop(obj, None)
        for fn in self.release_listeners:
            fn(client, obj)
        self._pump(obj)
        return True

    def downgrade(self, client: str, obj: int, to: LockMode) -> bool:
        """Weaken a held lock (X→S); wakes compatible waiters."""
        holders = self._holders.get(obj, {})
        held = holders.get(client)
        if held is None or to >= held or to == LockMode.NONE:
            return False
        holders[client] = to
        self._record(self._now(), "downgrade", obj, client, to)
        self._pump(obj)
        return True

    def steal_all(self, client: str) -> List[Tuple[int, LockMode]]:
        """Stop honoring every lock the client holds (paper §1.2).

        Safe only when the lease authority says so.  Waiters on the
        freed objects are granted immediately.
        """
        stolen = self.objects_held_by(client)
        now = self._now()
        for obj, mode in stolen:
            holders = self._holders.get(obj, {})
            holders.pop(client, None)
            if not holders:
                self._holders.pop(obj, None)
            self._record(now, "steal", obj, client, mode)
            self.steals += 1
            for fn in self.release_listeners:
                fn(client, obj)
        # Drop the client's queued requests too; then wake waiters.
        for obj, _mode in stolen:
            self._pump(obj)
        for obj in list(self._waiters):
            self.cancel_waiter(client, obj)
        return stolen

    def clear_volatile(self, now: float = 0.0) -> None:
        """Server crash: all holdings and waiters are lost (history —
        audit ground truth — survives, as it would on an external
        observer).  Release listeners fire so per-object lease tables
        clean up too."""
        for obj, holders in list(self._holders.items()):
            for client in list(holders):
                for fn in self.release_listeners:
                    fn(client, obj)
        self._holders.clear()
        self._waiters.clear()

    def export_holdings(self, objs: Iterable[int],
                        ) -> List[Tuple[int, str, LockMode]]:
        """Hand the live holdings on ``objs`` to another lock manager.

        Used for graceful slot handoff (cluster failback/rebalancing):
        an ownership *transfer*, not a release — holders keep their
        locks at the new owner, so no release/steal history event is
        recorded (the audit's open-interval reconstruction then covers
        the whole handoff conservatively).  Waiters are dropped; their
        clients' pending requests fail over and retry at the new owner.
        Release listeners still fire so per-object bookkeeping (lease
        pin tables) cleans up locally.
        """
        exported: List[Tuple[int, str, LockMode]] = []
        for obj in objs:
            holders = self._holders.pop(obj, None)
            if holders:
                for client, mode in holders.items():
                    exported.append((obj, client, mode))
                    for fn in self.release_listeners:
                        fn(client, obj)
            self._waiters.pop(obj, None)
        return exported

    def import_holdings(self, entries: Iterable[Tuple[int, str, LockMode]],
                        ) -> None:
        """Install holdings exported by another manager (slot handoff).

        Each entry is recorded as an ordinary grant at the current time
        — the new owner's audit trail starts where the old owner's
        stopped."""
        for obj, client, mode in entries:
            if satisfies(self.mode_of(client, obj), mode):
                continue
            self._grant(client, obj, mode)

    def steal_one(self, client: str, obj: int) -> bool:
        """Stop honoring a single lock (V-lease per-object revocation)."""
        holders = self._holders.get(obj, {})
        mode = holders.pop(client, None)
        if mode is None:
            return False
        if not holders:
            self._holders.pop(obj, None)
        self._record(self._now(), "steal", obj, client, mode)
        self.steals += 1
        for fn in self.release_listeners:
            fn(client, obj)
        self._pump(obj)
        return True

    # -- internals -----------------------------------------------------------
    def _record(self, time: float, op: str, obj: int, client: str,
                mode: LockMode) -> None:
        self.history.append(LockGrant(time, op, obj, client, mode))
        self.latest.setdefault((client, obj), {})[op] = time

    def _grant(self, client: str, obj: int, mode: LockMode) -> None:
        self._holders.setdefault(obj, {})[client] = mode
        self._record(self._now(), "grant", obj, client, mode)
        self.grants += 1
        for fn in self.grant_listeners:
            fn(client, obj, mode)

    def _pump(self, obj: int) -> None:
        """Grant queued waiters that are now compatible, FIFO."""
        q = self._waiters.get(obj)
        if not q:
            return
        progressed = True
        while progressed and q:
            progressed = False
            w = q[0]
            if not self.conflicts_for(w.client, obj, w.mode):
                q.pop(0)
                self._grant(w.client, obj, w.mode)
                w.callback(obj, w.mode)
                progressed = True
        if not q:
            self._waiters.pop(obj, None)
