"""Control-network message vocabulary.

Messages are datagrams (paper §3): no connections, no delivery
guarantee.  Requests carry a per-sender sequence number so receivers can
implement "at most once" execution, and every request is answered by an
:class:`Ack` (carrying the reply payload) or a :class:`Nack` (the §3.3
signal that the sender's cache is invalid and its lease will not renew).

:class:`Message` is a plain ``__slots__`` class rather than a dataclass:
one is allocated per transmission attempt, which makes construction a
transport hot path.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Tuple


class MsgKind:
    """Dotted message-kind constants used on the control network."""

    # client → server file system transactions
    OPEN = "fs.open"                       # lock-free (NFS-style) open only
    GETATTR = "fs.getattr"
    SETATTR = "fs.setattr"
    CREATE = "fs.create"
    LOOKUP = "fs.lookup"
    UNLINK = "fs.unlink"
    READDIR = "fs.readdir"
    ALLOC = "fs.alloc"

    # client → server locking
    LOCK_ACQUIRE = "lock.acquire"
    LOCK_RELEASE = "lock.release"
    LOCK_DOWNGRADE = "lock.downgrade"

    # intent locking (Lustre-style): the lock request carries the
    # operation (open, create, getattr, setattr, byte-range acquire and
    # release, close), so the server executes it under the lock it is
    # about to grant and answers op-result + grant in one round trip.
    # LOCK_BATCH is the batching envelope: several sub-requests (e.g.
    # contiguous range acquires) coalesced into one datagram.
    LOCK_INTENT = "lock.intent"
    LOCK_BATCH = "lock.batch"

    # server → client lock revocation ("demand") and range-holder probe
    LOCK_DEMAND = "lock.demand"
    RANGE_DEMAND = "lock.range_demand"
    CACHE_INVALIDATE = "cache.invalidate"

    # lease protocol
    KEEPALIVE = "lease.keepalive"          # NULL message, §3.2 phase 2
    LEASE_RENEW = "lease.renew"            # V-system per-object renewal (§4 baseline)
    HEARTBEAT = "lease.heartbeat"          # Frangipani-style heartbeat (§5 baseline)

    # NFS-style polling (§5 baseline)
    POLL_MTIME = "nfs.poll"
    NFS_READ = "nfs.read"                  # function-shipped data read
    NFS_WRITE = "nfs.write"                # function-shipped data write

    # server-marshalled data path (traditional client/server FS, §1.1)
    DATA_READ = "data.read"
    DATA_WRITE = "data.write"

    # cluster control plane (repro.cluster): coordinator liveness pings,
    # shard-map distribution, and graceful slot handoff for failback
    CLUSTER_PING = "cluster.ping"
    CLUSTER_MAP_FETCH = "cluster.map_fetch"
    CLUSTER_MAP_UPDATE = "cluster.map_update"
    CLUSTER_RELEASE = "cluster.release_slots"

    # server crash recovery (§6): client re-presents a lock it held
    # before the server's epoch changed
    LOCK_REASSERT = "lock.reassert"

    # transport
    ACK = "transport.ack"
    NACK = "transport.nack"
    RESULT = "transport.result"   # final outcome of a deferred transaction


#: The handler-group partition of the vocabulary.  Every ``MsgKind``
#: constant must appear in exactly one group (lint rule RPL006 enforces
#: this), and a dispatcher module declares the groups it implements with
#: a ``# repro-lint: handles[...]`` comment — adding a kind here without
#: registering its handler then fails static analysis instead of
#: surfacing as a silently dropped datagram at run time.
KIND_GROUPS: Dict[str, Tuple[str, ...]] = {
    # the metadata server's client-transaction surface
    "fs-core": (MsgKind.OPEN, MsgKind.GETATTR, MsgKind.SETATTR,
                MsgKind.CREATE, MsgKind.LOOKUP, MsgKind.UNLINK,
                MsgKind.READDIR),
    "fs-alloc": (MsgKind.ALLOC,),            # reserved; no dispatcher yet
    "locking": (MsgKind.LOCK_ACQUIRE, MsgKind.LOCK_RELEASE,
                MsgKind.LOCK_DOWNGRADE),
    "intent": (MsgKind.LOCK_INTENT, MsgKind.LOCK_BATCH),
    "lease-null": (MsgKind.KEEPALIVE,),
    "data-ship": (MsgKind.DATA_READ, MsgKind.DATA_WRITE),
    "recovery": (MsgKind.LOCK_REASSERT,),
    # client-side callbacks (server-initiated demands)
    "client-demands": (MsgKind.LOCK_DEMAND, MsgKind.RANGE_DEMAND,
                       MsgKind.CACHE_INVALIDATE),
    # baseline protocols (§4-§5 comparisons)
    "lease-baselines": (MsgKind.LEASE_RENEW, MsgKind.HEARTBEAT),
    "nfs-baseline": (MsgKind.POLL_MTIME, MsgKind.NFS_READ, MsgKind.NFS_WRITE),
    # cluster control plane
    "cluster-owner": (MsgKind.CLUSTER_PING, MsgKind.CLUSTER_MAP_UPDATE,
                      MsgKind.CLUSTER_RELEASE),
    "cluster-coordinator": (MsgKind.CLUSTER_MAP_FETCH,),
    # transport frames are consumed by the endpoint itself
    "transport": (MsgKind.ACK, MsgKind.NACK, MsgKind.RESULT),
}


_msg_counter = itertools.count(1)

# Locals for the reply-kind test so is_reply() does two string compares
# against preresolved constants instead of a tuple membership lookup.
_ACK_KIND = MsgKind.ACK
_NACK_KIND = MsgKind.NACK


class Message:
    """One datagram on the control network.

    ``seq`` is the per-sender sequence number used for at-most-once
    execution; ``msg_id`` is globally unique for tracing and for matching
    replies (``reply_to``).
    """

    __slots__ = ("src", "dst", "kind", "payload", "seq", "msg_id",
                 "reply_to", "sent_local_time")

    def __init__(self, src: str, dst: str, kind: str,
                 payload: Optional[Dict[str, Any]] = None,
                 seq: int = 0,
                 msg_id: Optional[int] = None,
                 reply_to: Optional[int] = None,
                 sent_local_time: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload: Dict[str, Any] = {} if payload is None else payload
        self.seq = seq
        self.msg_id = next(_msg_counter) if msg_id is None else msg_id
        self.reply_to = reply_to
        # Local send time stamped by the sender's clock — the lease start
        # point t_C1 of Fig. 3.  Carried on the message object for the
        # sender's own bookkeeping; the receiver never interprets it.
        self.sent_local_time = sent_local_time

    def is_reply(self) -> bool:
        """True for ACK/NACK transport messages."""
        kind = self.kind
        return kind == _ACK_KIND or kind == _NACK_KIND

    def size_bytes(self) -> int:
        """Rough wire size: fixed header plus payload data length.

        Only data-carrying payload keys (``"data_bytes"``) contribute —
        used by experiment E1 to show the server moves no file data in
        the direct-access model.
        """
        return 64 + int(self.payload.get("data_bytes", 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(src={self.src!r}, dst={self.dst!r}, "
                f"kind={self.kind!r}, seq={self.seq}, msg_id={self.msg_id}, "
                f"reply_to={self.reply_to})")


class Ack(Message):
    """Positive acknowledgment carrying the transaction reply payload."""

    __slots__ = ()

    def __init__(self, src: str, dst: str, reply_to: int,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        self.src = src
        self.dst = dst
        self.kind = _ACK_KIND
        self.payload = {} if payload is None else payload
        self.seq = 0
        self.msg_id = next(_msg_counter)
        self.reply_to = reply_to
        self.sent_local_time = 0.0


class Nack(Message):
    """Negative acknowledgment (§3.3): "you missed a message; your cache
    is invalid; I will not renew your lease"."""

    __slots__ = ()

    def __init__(self, src: str, dst: str, reply_to: int,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        self.src = src
        self.dst = dst
        self.kind = _NACK_KIND
        self.payload = {} if payload is None else payload
        self.seq = 0
        self.msg_id = next(_msg_counter)
        self.reply_to = reply_to
        self.sent_local_time = 0.0


class DeliveryError(Exception):
    """Raised to the sender when all retries of a request went unanswered."""

    def __init__(self, msg: Message, attempts: int) -> None:
        super().__init__(f"no reply to {msg.kind} {msg.src}->{msg.dst} after {attempts} attempts")
        self.msg = msg
        self.attempts = attempts


class NackError(Exception):
    """Raised to the sender when the receiver answered with a NACK."""

    def __init__(self, msg: Message, nack: Message) -> None:
        super().__init__(f"{msg.kind} {msg.src}->{msg.dst} was NACKed")
        self.msg = msg
        self.nack = nack
