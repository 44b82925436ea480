"""Intent locking, Lustre DLM style: the lock request carries the
operation (``LOCK_INTENT`` one, ``LOCK_BATCH`` several), the only
client↔server lock path.

The executor owns the intent census and shapes byte-range grants
(batches coalesced, uncontended ranges widened to the file extent).
The growth setattr runs the server's ``_setattr`` body, shared with the
plain handler, and the locks are the lock service's, so it is
constructed with its server (DESIGN.md, "Node layers").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Sequence, Tuple

from repro.locks.manager import coalesce_ranges, widen_range
from repro.locks.modes import LockMode
from repro.locks.ranges import ByteRange
from repro.metadata.directory import NamespaceError
from repro.net.control import HandlerResult
from repro.net.message import (Batch, Close, IntentOp, Message, MsgKind,
                               OpenIntent, RangeAcquire, RangeRelease, Setattr)
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.server.node import StorageTankServer


class IntentExecutor:
    """Runs intent descriptors under the locks they ask for."""

    def __init__(self, server: "StorageTankServer") -> None:
        self.server = server
        self.intent_ops = 0          # sub-operations executed under intents
        self.closes_by_file: Dict[int, int] = {}  # per-file close census
        # repro-lint: handles[intent]
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
        grant_lock = server.lock_service.grant_lock
        self.intent_ops += 1
        if isinstance(body, OpenIntent):
            path = body.path
            try:
                ino = server._meta_for_path(path).lookup(path)
            except NamespaceError as exc:
                return ("nack", {"error": str(exc)})
            wanted = (LockMode.EXCLUSIVE if body.mode == "w"
                      else LockMode.SHARED)
            granted = yield from grant_lock(client, ino.file_id, wanted)
            return ("ack", {"file_id": ino.file_id,
                            **server._meta_reply(ino, body.have_layout),
                            "lock": int(granted)})
        if isinstance(body, Setattr):
            file_id = int(body.file_id)
            granted = yield from grant_lock(client, file_id,
                                            LockMode.EXCLUSIVE)
            decision, payload = yield from server._setattr(
                file_id, body.size, body.mode, body.have_layout)
            if decision == "ack":
                payload = {**payload, "lock": int(granted)}
            return (decision, payload)
        if isinstance(body, RangeRelease):
            file_id = int(body.file_id)
            rng = None
            if body.start is not None:
                rng = ByteRange(int(body.start), int(body.end))
            server.range_locks.release(client, file_id, rng)
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

    def _h_lock_intent(self, msg: Message,
                       ) -> Generator[Event, Any, HandlerResult]:
        """One intent: a degenerate batch, answered as a plain reply."""
        [result] = yield from self._run_intents(msg.src, [msg.payload])
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
                wide = widen_range(server.range_locks, client, fid, rng, size)
                yield from server.lock_service.acquire_range(
                    client, fid, wide, mode_l)
                spans.append(wide)
            for req_rng, req_mode in requests:
                span = next((s for s in spans if s.contains(req_rng)),
                            req_rng)
                results.append({"ok": True, "mode": int(req_mode),
                                "start": span.start, "end": span.end})
            i = j
        return results
