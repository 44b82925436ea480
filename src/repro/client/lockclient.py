"""The client's side of the lock protocol (paper §2, §3.1, §6).

A data lock is granted once and then *cached* until the server demands
it back.  The :class:`LockClient` owns that cache and every way a lock
enters or leaves it: acquisition, demand compliance (stop new users,
drain current ones, *flush*, only then yield — so the next holder reads
what this one wrote), reassertion after a server restart or shard move,
and the one way to forfeit a lock that cannot be kept.

Every hold is a ``with`` block or one generator, so it is released on
every exit, exceptions and crash interrupts included: an operation pins
the cached lock it validated (``with pin(file_id)``), a demand
compliance marks the file as being revoked (``with
_revoking.marking(file_id)``), and byte-range locks, which are not
cached, live exactly as long as one :meth:`LockClient.ranges_locked`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable,
                    Iterator, List, Optional, Tuple, TypeVar)

from repro.client.openfile import FdTable, OpenFile
from repro.locks.client_table import ClientLockTable
from repro.locks.modes import LockMode
from repro.net.control import Endpoint, HandlerResult
from repro.net.message import (Batch, DeliveryError, Downgrade, LockAcquire,
                               LockDemand, LockRelease, Message, MsgKind,
                               NackError, RangeAcquire, RangeDemand,
                               RangeRelease, Reassert)
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.client.datapath import DataPath
    from repro.client.routing import Router

_T = TypeVar("_T")


class _Marks:
    """File ids marked once per demand compliance in progress on them: a
    second demand can overtake the first's unconfirmed downgrade, and the
    file stays marked until the last of them un-marks it."""

    def __init__(self) -> None:
        self._count: Dict[int, int] = {}

    def add(self, file_id: int) -> None:
        self._count[file_id] = self._count.get(file_id, 0) + 1

    def discard(self, file_id: int) -> None:
        if self._count.get(file_id, 0) > 1:
            self._count[file_id] -= 1
        else:
            self._count.pop(file_id, None)

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._count

    @contextmanager
    def marking(self, file_id: int) -> Iterator[None]:
        """Keep ``file_id`` marked for the ``with`` block."""
        self.add(file_id)
        try:
            yield
        finally:
            self.discard(file_id)


class _Pin:
    """One operation's use of a file's cached lock, for a ``with``
    block: a demand compliance must not release a lock out from under
    an operation that already validated it (TOCTOU), so it drains every
    pin first."""

    __slots__ = ("owner", "file_id")

    def __init__(self, owner: "LockClient", file_id: int) -> None:
        self.owner = owner
        self.file_id = file_id

    def __enter__(self) -> None:
        inflight = self.owner._file_inflight
        inflight[self.file_id] = inflight.get(self.file_id, 0) + 1

    def __exit__(self, *exc: Any) -> None:
        owner, file_id = self.owner, self.file_id
        n = owner._file_inflight.get(file_id, 1) - 1
        if n <= 0:
            owner._file_inflight.pop(file_id, None)
            ev = owner._file_drain_evs.pop(file_id, None)
            if ev is not None and not ev.triggered:
                ev.succeed()
        else:
            owner._file_inflight[file_id] = n


class LockClient:
    """Cached data locks of one client node."""

    def __init__(self, sim: Simulator, endpoint: Endpoint,
                 routing: "Router", data: "DataPath", fds: FdTable,
                 trace: TraceRecorder) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.name = endpoint.name
        self.routing = routing
        self._rpc = routing.rpc
        self.data = data
        self.fds = fds
        self.trace = trace
        self.table = ClientLockTable()
        # Pins (:class:`_Pin`) per file, and the events their drains wait on.
        self._file_inflight: Dict[int, int] = {}
        self._file_drain_evs: Dict[int, Event] = {}
        self._revoking = _Marks()
        # A reply that carries a grant (``lock``) reflects server state
        # at *execution* time, not delivery time.  Under message loss
        # the at-most-once layer re-delivers cached replies arbitrarily
        # late, so a grant executed before a demand-driven release can
        # arrive after it — and must not resurrect the lock.
        # sim-time of the last revocation, per file.
        self._lock_revoked_at: Dict[int, float] = {}
        self.reasserts_sent = 0
        # Range-lock demands received, per file (contention census).
        self.range_demands_seen: Dict[int, int] = {}

        # Server-initiated requests.
        endpoint.register(MsgKind.LOCK_DEMAND, self._on_lock_demand)
        endpoint.register(MsgKind.RANGE_DEMAND, self._on_range_demand)

    # -- pinning ---------------------------------------------------------------
    def pin(self, file_id: int) -> _Pin:
        """Pin this file's lock for the ``with`` block that uses it."""
        return _Pin(self, file_id)

    def _wait_file_drain(self, file_id: int) -> Generator[Event, Any, None]:
        """Wait until no operation is using the file's lock."""
        while self._file_inflight.get(file_id, 0) > 0:
            ev = self._file_drain_evs.get(file_id)
            if ev is None or ev.triggered:
                ev = self.sim.event()
                self._file_drain_evs[file_id] = ev
            yield ev

    # -- grants ----------------------------------------------------------------
    def _note_lock_revoked(self, file_id: int) -> None:
        """Record that this client gave up (or lost) the file's lock now."""
        self._lock_revoked_at[file_id] = self.sim.now

    def lock_reply_stale(self, file_id: int, sent_at: float) -> bool:
        """True if a lock mode in a reply to a request sent at ``sent_at``
        must be discarded: the lock was (or is being) revoked since the
        request left, so the grant describes a lock we no longer hold."""
        return (file_id in self._revoking
                or self._lock_revoked_at.get(file_id, -1.0) >= sent_at)

    def adopt_grant(self, of: OpenFile, payload: Dict[str, Any],
                    held: Any, sent_at: float) -> bool:
        """Adopt what an intent reply to a request sent at ``sent_at``
        carried: its grant (``lock``) unless :meth:`lock_reply_stale`,
        and its attrs/layout against ``held``, the map the request
        advertised.  Returns whether the grant was adopted."""
        fresh = not self.lock_reply_stale(of.file_id, sent_at)
        if fresh:
            granted = LockMode(int(payload["lock"]))
            self.table.note_granted(of.file_id, granted)
            of.lock = granted
        self.data.apply_meta_reply(of, payload, held)
        return fresh

    def ensure_lock(self, of: OpenFile, mode: LockMode,
                    ) -> Generator[Event, Any, None]:
        """Make sure the open instance is covered by ``mode``.

        While a demand compliance is revoking this file's lock, new
        operations must not ride the dying lock: they go to the server,
        whose waiter queue serializes them behind the revocation.
        """
        while True:
            while of.file_id in self._revoking:
                yield self.sim.timeout(0.01)
            wanted = max(mode, of.wanted_lock) if not of.stale \
                else of.wanted_lock
            if not of.stale and self.table.covers(of.file_id, mode):
                if of.lock < mode:
                    of.lock = self.table.mode_of(of.file_id)
                return
            sent_at = self.sim.now
            held = self.data.layouts.get(of.file_id)
            reply = yield from self._rpc(
                MsgKind.LOCK_INTENT,
                LockAcquire(of.file_id, int(wanted),
                            self.data.layout_hint(of.file_id, held)),
                of.server, route=("file", of.file_id))
            if not self.lock_reply_stale(of.file_id, sent_at):
                break
            # The grant was revoked while the reply was in flight (e.g.
            # a demand compliance released it): discard and re-acquire
            # against the server's current state.
            self.data.drop_file(of.file_id)
            of.stale = True
        if of.stale:
            # Revalidation after staleness: cached pages may be outdated.
            self.data.drop_file(of.file_id)
            of.stale = False
        # The grant's own payload carries fresh attrs/extents — adopt
        # them instead of re-fetching through a second parse path.
        self.adopt_grant(of, reply.payload, held, sent_at)

    def drop_locks(self, file_ids: Optional[Iterable[int]] = None) -> None:
        """The lease covering these locks (None: every lock) expired."""
        if file_ids is None:
            for fid, _mode in self.table.all_held():
                self._note_lock_revoked(fid)
            self.table.drop_all()
            return
        for fid in file_ids:
            self._note_lock_revoked(fid)
            self.table.note_released(fid)

    def forfeit(self, file_id: int, reason: str) -> None:
        """Give up a lock the server may no longer honour: dropping a
        lock we might still own is always safe, keeping one we lost
        never is.  What the drop discards unhardened is reported."""
        self._note_lock_revoked(file_id)
        self.table.note_released(file_id)
        for p in self.data.drop_file(file_id):
            self.data.report_lost(file_id, p.tag, reason)
        for of in self.fds.by_file_id(file_id):
            of.lock = LockMode.NONE
            of.stale = True

    # -- byte-range locks ------------------------------------------------------
    def ranges_locked(self, of: OpenFile, ranges: List[Tuple[int, int]],
                      mode: LockMode,
                      io: Callable[[int, int], Generator[Event, Any, _T]],
                      ) -> Generator[Event, Any, List[_T]]:
        """Run ``io(offset, nbytes)`` on each range under byte-range
        locks of ``mode``; returns its results in order.

        Every range is acquired in one LOCK_BATCH; the distinct granted
        spans (the server may have coalesced or widened them) are
        released in another, in this generator's own ``finally``."""
        route = ("file", of.file_id)
        acquire = Batch(tuple(
            RangeAcquire(of.file_id, offset, offset + nbytes, int(mode))
            for offset, nbytes in ranges))
        reply = yield from self._rpc(MsgKind.LOCK_BATCH, acquire,
                                     of.server, route=route)
        spans = sorted({(int(r["start"]), int(r["end"]))
                        for r in reply.payload["results"] if r.get("ok")})
        try:
            out = []
            for offset, nbytes in ranges:
                out.append((yield from io(offset, nbytes)))
            return out
        finally:
            if spans:
                release = Batch(tuple(RangeRelease(of.file_id, start, end)
                                      for start, end in spans))
                yield from self._rpc(MsgKind.LOCK_BATCH, release,
                                     of.server, route=route)

    # -- §6 server recovery: lock reassertion ------------------------------------
    def reassert_locks(self, server: str) -> Generator[Event, Any, None]:
        """Re-claim every cached lock held from a restarted (or, under a
        cluster, newly owning) server.

        A refused reassertion (someone else claimed the object first)
        forfeits the lock and invalidates that file's cache.
        """
        pending = [(obj, mode) for obj, mode in self.table.all_held()
                   if self.routing.server_for_file(obj) == server]
        for i, (obj, mode) in enumerate(pending):
            try:
                yield from self._reassert_one(obj, mode, server)
            except DeliveryError:
                # Server unreachable again, and the epoch is already
                # recorded — no later ACK will restart this sweep.  A
                # lock the restarted server never re-learned is a lock
                # it will happily grant elsewhere once its grace window
                # closes, so forfeit everything not yet reasserted.
                for fobj, _fmode in pending[i:]:
                    self.forfeit(fobj, "reassert_abandoned")
                return

    def _reassert_one(self, obj: int, mode: LockMode, server: str,
                      retried: bool = False) -> Generator[Event, Any, None]:
        self.reasserts_sent += 1
        try:
            yield from self.endpoint.request(server, MsgKind.LOCK_REASSERT,
                                             Reassert(obj, int(mode)))
            self.trace.emit(self.sim.now, "client.reasserted", self.name,
                            obj, int(mode))
        except NackError as exc:
            if not retried:
                # The slot may have moved again (e.g. failback raced
                # us): follow the map once rather than forfeiting a
                # live lock.
                new_owner = yield from self.routing.follow_refusal(
                    exc, ("file", obj), server)
                if new_owner is not None and new_owner != server:
                    yield from self._reassert_one(obj, mode, new_owner,
                                                  retried=True)
                    return
            self.forfeit(obj, "reassert_refused")

    # -- server-initiated handlers -----------------------------------------------
    def _on_lock_demand(self, msg: Message) -> HandlerResult:
        """The server demands a lock back (conflict elsewhere).

        ACK immediately (receipt), then comply asynchronously: flush the
        file's dirty pages, then release or downgrade.
        """
        body: LockDemand = msg.payload
        file_id = int(body.file_id)
        needed = LockMode(int(body.needed_mode))
        self.sim.process(self._comply_demand(file_id, needed, msg.src),
                         name=f"{self.name}:comply:{file_id}")
        return ("ack", {"status": "demand_received"})

    def _on_range_demand(self, msg: Message) -> HandlerResult:
        """A server probes a range-lock holder for liveness.

        Holders release ranges as part of the operation itself, so
        acknowledging receipt is the whole protocol; record which file
        drew the demand for the contention census.  Bare demands (no
        file named) are pure liveness pings and only need the ack.
        """
        body: RangeDemand = msg.payload
        file_id = body.file_id
        if file_id is not None:
            fid = int(file_id)
            self.range_demands_seen[fid] = \
                self.range_demands_seen.get(fid, 0) + 1
        return ("ack", {})

    def _comply_demand(self, file_id: int, needed: LockMode, server: str,
                       ) -> Generator[Event, Any, None]:
        if self.table.mode_of(file_id) == LockMode.NONE:
            return
        # Stop new operations from riding the lock, drain current users,
        # then flush what they wrote — only then give the lock back.
        with self._revoking.marking(file_id):
            yield from self._wait_file_drain(file_id)
            yield from self.data.flush(file_id)
            yield from self._yield_lock(file_id, needed, server)

    def _yield_lock(self, file_id: int, needed: LockMode, server: str,
                    ) -> Generator[Event, Any, None]:
        held = self.table.mode_of(file_id)
        if held == LockMode.NONE:
            return
        try:
            if needed == LockMode.SHARED and held == LockMode.EXCLUSIVE:
                yield from self._rpc(MsgKind.LOCK_INTENT,
                                     Downgrade(file_id, int(LockMode.SHARED)),
                                     server)
                self._note_lock_revoked(file_id)
                self.table.note_downgraded(file_id, LockMode.SHARED)
                for of in self.fds.by_file_id(file_id):
                    of.lock = LockMode.SHARED
            else:
                self.data.drop_file(file_id)
                yield from self._rpc(MsgKind.LOCK_INTENT,
                                     LockRelease(file_id), server)
                self._note_lock_revoked(file_id)
                self.table.note_released(file_id)
                for of in self.fds.by_file_id(file_id):
                    of.lock = LockMode.NONE
        except (NackError, DeliveryError):
            # Either every ACK was lost, or a retransmit was NACKed by
            # the suspect gatekeeper (which answers before the dedup
            # cache).  In both cases the server may well have executed
            # the release (at-most-once) and granted the lock elsewhere,
            # while our lease keeps renewing off other traffic, so
            # expiry will not save us.
            self.forfeit(file_id, "yield_unconfirmed")
