"""Intent locking, Lustre DLM style: the lock request carries the
operation (``LOCK_INTENT`` one, ``LOCK_BATCH`` several).  Every lock
request a client sends is an intent — a bare acquire, release or
downgrade of a cached lock too — so this executor is the one place
that runs, and answers, a client's lock request; only the §6
reassertion (``LOCK_REASSERT``) stays outside.

The executor owns the intent census and shapes byte-range grants
(batches coalesced, uncontended ranges widened to the file extent).
The growth setattr runs the server's ``_setattr`` body, shared with the
plain handler, and the locks are the lock service's, so it is
constructed with its server (DESIGN.md, "Node layers").
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Sequence,
                    Tuple, Union)

from repro.locks.manager import SCOPED, ByteRange, LockTable
from repro.locks.modes import LockMode
from repro.metadata.directory import NamespaceError
from repro.net.control import HandlerResult
from repro.net.message import (Batch, Close, Downgrade, IntentOp,
                               LockAcquire, LockRelease, Message, MsgKind,
                               OpenIntent, RangeAcquire, RangeRelease, Setattr)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.server.node import StorageTankServer


# An intent request may be granted more than it asked for, never less:
# safety stays with the lock table and the lease discipline, which see
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


def widen_range(locks: LockTable, client: str, obj: int,
                rng: ByteRange, size_bytes: int) -> ByteRange:
    """The range granted for a requested one: the whole file extent
    ``[0, max(end, size))`` when nobody else holds or awaits a byte
    range of the object, so the client's next request is already
    covered; the request itself under contention, where widening would
    only manufacture false sharing."""
    if locks.other_interest(client, obj, SCOPED):
        return rng
    return ByteRange(0, max(rng.end, size_bytes))


class IntentExecutor:
    """Runs intent descriptors under the locks they ask for."""

    def __init__(self, server: "StorageTankServer") -> None:
        self.server = server
        self.intent_ops = 0          # sub-operations executed under intents
        self.closes_by_file: Dict[int, int] = {}  # per-file close census
        self.rejected_releases = 0   # release/downgrade from a non-holder
        server._register(MsgKind.LOCK_INTENT, self._h_lock_intent)
        server._register(MsgKind.LOCK_BATCH, self._h_lock_batch)

    def _file_size(self, file_id: int) -> int:
        """Current size of a file, 0 if unknown (``widen_range`` input)."""
        try:
            return int(self.server._meta_for_file(file_id).inode(
                file_id).attrs.size)
        except (NamespaceError, KeyError):
            return 0

    def _intent_exec(self, client: str, body: IntentOp,
                     ) -> Generator[Event, Any, Tuple[str, Dict[str, Any]]]:
        """Execute one intent sub-operation (any but ``range_acquire``,
        which ``_run_intents`` coalesces) under the lock it grants.

        This is the server half of the one-round-trip contract: the
        request names the operation, the server wins the covering lock
        (demanding it from conflicting holders) and performs the
        operation while still holding it, so the reply carries
        op-result *and* grant together.
        """
        server = self.server
        acquire = server.lock_service.acquire
        self.intent_ops += 1
        if isinstance(body, OpenIntent):
            path = body.path
            try:
                ino = server._meta_for_path(path).lookup(path)
            except NamespaceError as exc:
                return ("nack", {"error": str(exc)})
            wanted = (LockMode.EXCLUSIVE if body.mode == "w"
                      else LockMode.SHARED)
            granted = yield from acquire(client, ino.file_id, wanted)
            return ("ack", {"file_id": ino.file_id,
                            **server._meta_reply(ino, body.have_layout),
                            "lock": int(granted)})
        if isinstance(body, Setattr):
            file_id = int(body.file_id)
            granted = yield from acquire(client, file_id, LockMode.EXCLUSIVE)
            decision, payload = yield from server._setattr(
                file_id, body.size, body.mode, body.have_layout)
            if decision == "ack":
                payload = {**payload, "lock": int(granted)}
            return (decision, payload)
        if isinstance(body, LockAcquire):
            # Revalidation or upgrade: the grant brings fresh metadata
            # (none when the file is gone).
            file_id = int(body.file_id)
            granted = yield from acquire(client, file_id,
                                         LockMode(int(body.mode)))
            try:
                meta = server._meta_reply(
                    server._meta_for_file(file_id).inode(file_id),
                    body.have_layout)
            except NamespaceError:
                meta = {}
            return ("ack", {**meta, "lock": int(granted)})
        if isinstance(body, (LockRelease, Downgrade)):
            return self._give_back(client, body)
        if isinstance(body, RangeRelease):
            file_id = int(body.file_id)
            rng = None
            if body.start is not None:
                rng = ByteRange(int(body.start), int(body.end))
            server.locks.release(client, file_id, rng, SCOPED)
            return ("ack", {})
        if isinstance(body, Close):
            # Locks are cached past close (§3.1); closing is bookkeeping
            # only: the per-file close census the client reports, so
            # session accounting can see open/close churn per file.
            fid = int(body.file_id)
            if server.cluster is not None and not server.cluster.owns_obj(fid):
                # The slot moved since the close was deferred.  Advisory,
                # so it fails alone and never refuses the batch it rides.
                return ("nack", {"error": "wrong_owner"})
            self.closes_by_file[fid] = self.closes_by_file.get(fid, 0) + 1
            return ("ack", {})
        return ("nack", {"error": f"not an intent: {type(body).__name__}"})

    def _give_back(self, client: str, body: Union[LockRelease, Downgrade],
                   ) -> HandlerResult:
        """Release or downgrade the sender's cached lock; never waits.

        Only *the sender's own* holding is touched.  One naming an
        object the sender does not hold — a replayed pre-steal request,
        or one raced by a steal — is a counted no-op, never a way to
        forfeit another holder's lock.  Still ACKed: it is idempotent,
        and the §6 resolution already voided the holding.
        """
        fid = int(body.file_id)
        locks = self.server.locks
        if locks.mode_of(client, fid) == LockMode.NONE:
            self.rejected_releases += 1
            return ("ack", {"status": "not_holder"})
        if isinstance(body, Downgrade):
            locks.downgrade(client, fid, LockMode(int(body.to)))
        else:
            locks.release(client, fid)
        return ("ack", {})

    def _h_lock_intent(self, msg: Message) -> Any:
        """One intent, answered as a plain reply: a release or downgrade
        at once, a range acquire as a degenerate batch."""
        body = msg.payload
        if isinstance(body, (LockRelease, Downgrade)):
            self.intent_ops += 1
            return self._give_back(msg.src, body)
        if isinstance(body, RangeAcquire):
            return self._lone_range(msg.src, body)
        return self._intent_exec(msg.src, body)

    def _lone_range(self, client: str, body: RangeAcquire,
                    ) -> Generator[Event, Any, HandlerResult]:
        """A range acquire sent alone, run as a batch of one."""
        [result] = yield from self._run_intents(client, [body])
        return ("ack" if result.pop("ok") else "nack", result)

    def _h_lock_batch(self, msg: Message,
                      ) -> Generator[Event, Any, HandlerResult]:
        """Batched intents: several sub-requests in one datagram.  Sub-op
        failures do not abort the batch — each result carries its own
        ``ok``."""
        body: Batch = msg.payload
        results = yield from self._run_intents(msg.src, body.ops)
        return ("ack", {"results": results})

    def _run_intents(self, client: str, ops: Sequence[IntentOp],
                     ) -> Generator[Event, Any, List[Dict[str, Any]]]:
        """Execute intent descriptors in order; one result per op.

        Runs of ``range_acquire`` sub-ops on the same file are coalesced
        and widened before acquisition (one lock-table walk
        per merged span), then every sub-op gets its own result slot so
        the client can map grants back to its requests.
        """
        server = self.server
        results: List[Dict[str, Any]] = []
        i = 0
        while i < len(ops):
            body = ops[i]
            if not isinstance(body, RangeAcquire):
                decision, payload = yield from self._intent_exec(client, body)
                results.append({"ok": decision == "ack", **payload})
                i += 1
                continue
            # Collect the contiguous run of range acquisitions on this
            # file and coalesce it.
            fid = int(body.file_id)
            j = i + 1
            while j < len(ops):
                nxt = ops[j]
                if not isinstance(nxt, RangeAcquire) or int(nxt.file_id) != fid:
                    break
                j += 1
            requests = [(ByteRange(int(b.start), int(b.end)),
                         LockMode(int(b.mode))) for b in ops[i:j]]
            size = self._file_size(fid)
            spans: List[ByteRange] = []
            for rng, mode_l in coalesce_ranges(requests):
                self.intent_ops += 1
                wide = widen_range(server.locks, client, fid, rng, size)
                yield from server.lock_service.acquire(
                    client, fid, mode_l, wide, SCOPED)
                spans.append(wide)
            for req_rng, req_mode in requests:
                span = next((s for s in spans if s.contains(req_rng)),
                            req_rng)
                results.append({"ok": True, "mode": int(req_mode),
                                "start": span.start, "end": span.end})
            i = j
        return results
