"""Control-network message vocabulary.

Messages are datagrams (paper §3): no connections, no delivery
guarantee.  Requests carry a per-sender sequence number so receivers can
implement "at most once" execution, and every request is answered by an
:class:`Ack` (carrying the reply payload) or a :class:`Nack` (the §3.3
signal that the sender's cache is invalid and its lease will not renew).

Each request kind has one declared payload schema, a slotted dataclass
listed in :data:`SCHEMAS` next to :class:`MsgKind`;
:meth:`~repro.net.control.Endpoint.request` refuses any other payload.
What belongs to the transport rather than to one operation travels in
:class:`Message` slots, never in a payload: a request's lapse
attestation (``lapse_attested``), an ACK's ``stamp`` (the server's
epoch and cache watermark), its ``pending`` receipt flag and a NACK's
``lease_nack`` flag.  Reply payloads stay plain dicts.

:class:`Message` is a plain ``__slots__`` class rather than a dataclass:
one is allocated per transmission attempt, which makes construction a
transport hot path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union


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

    # client → server locking
    LOCK_ACQUIRE = "lock.acquire"
    LOCK_RELEASE = "lock.release"
    LOCK_DOWNGRADE = "lock.downgrade"

    # intent locking (Lustre-style): the lock request carries the
    # operation (open, growth setattr, byte-range acquire and release,
    # close), so the server executes it under the lock it is
    # about to grant and answers op-result + grant in one round trip.
    # LOCK_BATCH is the batching envelope: several sub-requests (e.g.
    # contiguous range acquires) coalesced into one datagram.
    LOCK_INTENT = "lock.intent"
    LOCK_BATCH = "lock.batch"

    # server → client lock revocation ("demand") and range-holder probe
    LOCK_DEMAND = "lock.demand"
    RANGE_DEMAND = "lock.range_demand"

    # server → in-network cache node invalidation (repro.netcache)
    CACHE_INVALIDATE = "cache.invalidate"

    # lease protocol
    KEEPALIVE = "lease.keepalive"          # NULL message, §3.2 phase 2
    LEASE_RENEW = "lease.renew"            # V-system per-object renewal (§4 baseline)
    HEARTBEAT = "lease.heartbeat"          # Frangipani-style heartbeat (§5 baseline)

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
    "locking": (MsgKind.LOCK_ACQUIRE, MsgKind.LOCK_RELEASE,
                MsgKind.LOCK_DOWNGRADE),
    "intent": (MsgKind.LOCK_INTENT, MsgKind.LOCK_BATCH),
    "lease-null": (MsgKind.KEEPALIVE,),
    "data-ship": (MsgKind.DATA_READ, MsgKind.DATA_WRITE),
    "recovery": (MsgKind.LOCK_REASSERT,),
    # client-side callbacks (server-initiated demands)
    "client-demands": (MsgKind.LOCK_DEMAND, MsgKind.RANGE_DEMAND),
    # server-initiated invalidation of the in-network cache tier
    "cache-invalidate": (MsgKind.CACHE_INVALIDATE,),
    # baseline protocols (§4-§5 comparisons)
    "lease-baselines": (MsgKind.LEASE_RENEW, MsgKind.HEARTBEAT),
    # cluster control plane
    "cluster-owner": (MsgKind.CLUSTER_PING, MsgKind.CLUSTER_MAP_UPDATE,
                      MsgKind.CLUSTER_RELEASE),
    "cluster-coordinator": (MsgKind.CLUSTER_MAP_FETCH,),
    # transport frames are consumed by the endpoint itself
    "transport": (MsgKind.ACK, MsgKind.NACK),
}


# -- request payload schemas ---------------------------------------------------
# One slotted dataclass per request layout; a missing or unknown field is
# a TypeError at construction.  ``have_layout`` is the requester's block
# map hint ``(file_id, layout_gen, n_extents)``, untrusted input the
# server validates (``StorageTankServer._meta_reply``).

@dataclass(slots=True)
class Null:
    """No arguments: KEEPALIVE (the §3.2 NULL message), HEARTBEAT,
    CLUSTER_PING and CLUSTER_MAP_FETCH."""


@dataclass(slots=True)
class PathOnly:
    """LOOKUP, UNLINK and READDIR (a directory prefix)."""

    path: str


@dataclass(slots=True)
class FileOnly:
    """LOCK_RELEASE and LEASE_RENEW."""

    file_id: int


@dataclass(slots=True)
class Create:
    path: str
    size: int = 0


@dataclass(slots=True)
class Open:
    """The lock-free (NFS-style) OPEN; a locking open is an
    :class:`OpenIntent`."""

    path: str
    have_layout: Any = None


@dataclass(slots=True)
class Getattr:
    """A file's attributes, by ``path`` or by ``file_id``."""

    path: Optional[str] = None
    file_id: Optional[int] = None


@dataclass(slots=True)
class Setattr:
    """SETATTR, and the setattr (growth) intent."""

    file_id: int
    size: Optional[int] = None
    mode: Any = None
    have_layout: Any = None


@dataclass(slots=True)
class LockAcquire:
    file_id: int
    mode: int
    have_layout: Any = None


@dataclass(slots=True)
class Downgrade:
    file_id: int
    to: int


@dataclass(slots=True)
class Reassert:
    """LOCK_REASSERT: re-claim a lock held before a restart or move (§6)."""

    file_id: int
    mode: int


@dataclass(slots=True)
class OpenIntent:
    path: str
    mode: str = "r"
    have_layout: Any = None


@dataclass(slots=True)
class RangeAcquire:
    file_id: int
    start: int
    end: int
    mode: int


@dataclass(slots=True)
class RangeRelease:
    """Release ``[start, end)``, or every range held on the file."""

    file_id: int
    start: Optional[int] = None
    end: Optional[int] = None


@dataclass(slots=True)
class Close:
    """The advisory close census (§3.1: the lock stays cached)."""

    file_id: int


#: The intent sub-operations: ``LOCK_INTENT`` carries one, ``LOCK_BATCH``
#: a tuple of them.
IntentOp = Union[OpenIntent, Setattr, RangeAcquire, RangeRelease, Close]
INTENT_OPS = (OpenIntent, Setattr, RangeAcquire, RangeRelease, Close)


@dataclass(slots=True)
class Batch:
    ops: Tuple[IntentOp, ...]


@dataclass(slots=True)
class LockDemand:
    file_id: int
    needed_mode: int


@dataclass(slots=True)
class RangeDemand:
    """A range-holder probe; without ``file_id``, a bare liveness ping."""

    file_id: Optional[int] = None


@dataclass(slots=True)
class Invalidate:
    """CACHE_INVALIDATE: mutation barrier ``barrier`` drops these keys."""

    barrier: int
    paths: Sequence[str] = ()
    dirs: Sequence[str] = ()
    file_ids: Sequence[int] = ()


@dataclass(slots=True)
class DataRead:
    file_id: int
    block: int


@dataclass(slots=True)
class DataWrite:
    """A function-shipped block write; ``data_bytes`` ride the wire."""

    file_id: int
    block: int
    tag: Optional[str]
    data_bytes: int


@dataclass(slots=True)
class MapUpdate:
    """A pushed shard map, with the slots taken over or holdings adopted."""

    map: Dict[str, Any]
    takeover: Optional[Dict[str, Any]] = None
    adopt: Optional[Dict[str, Any]] = None


@dataclass(slots=True)
class ReleaseSlots:
    slots: List[int]


#: The one ``kind -> schema`` table (a tuple: any one of those classes).
#: ``Endpoint.request`` refuses a payload of any other type; ACK, NACK
#: and kinds outside :class:`MsgKind` have none.
SCHEMAS: Dict[str, Union[type, Tuple[type, ...]]] = {
    MsgKind.OPEN: Open, MsgKind.GETATTR: Getattr, MsgKind.SETATTR: Setattr,
    MsgKind.CREATE: Create, MsgKind.LOOKUP: PathOnly,
    MsgKind.UNLINK: PathOnly, MsgKind.READDIR: PathOnly,
    MsgKind.LOCK_ACQUIRE: LockAcquire, MsgKind.LOCK_RELEASE: FileOnly,
    MsgKind.LOCK_DOWNGRADE: Downgrade,
    MsgKind.LOCK_INTENT: INTENT_OPS, MsgKind.LOCK_BATCH: Batch,
    MsgKind.LOCK_DEMAND: LockDemand, MsgKind.RANGE_DEMAND: RangeDemand,
    MsgKind.CACHE_INVALIDATE: Invalidate,
    MsgKind.KEEPALIVE: Null, MsgKind.LEASE_RENEW: FileOnly,
    MsgKind.HEARTBEAT: Null,
    MsgKind.DATA_READ: DataRead, MsgKind.DATA_WRITE: DataWrite,
    MsgKind.CLUSTER_PING: Null, MsgKind.CLUSTER_MAP_FETCH: Null,
    MsgKind.CLUSTER_MAP_UPDATE: MapUpdate,
    MsgKind.CLUSTER_RELEASE: ReleaseSlots,
    MsgKind.LOCK_REASSERT: Reassert,
}

#: An ACK's envelope stamp: the server's epoch (§6) and, to an enrolled
#: cache node, its mutation watermark (else None).
Stamp = Tuple[int, Optional[int]]


_msg_counter = itertools.count(1)

# Locals for the reply-kind test so is_reply() does two string compares
# against preresolved constants instead of a tuple membership lookup.
_ACK_KIND = MsgKind.ACK
_NACK_KIND = MsgKind.NACK


class Message:
    """One datagram on the control network.

    ``seq`` is the per-sender sequence number used for at-most-once
    execution; ``msg_id`` is globally unique for tracing and for matching
    replies (``reply_to``).  ``lapse_attested`` is the sender's lease-lapse
    generation when the request was created (§6 attested rejoin, see
    :attr:`~repro.net.control.Endpoint.lapse_gen`); 0 before any lapse.
    """

    __slots__ = ("src", "dst", "kind", "payload", "seq", "msg_id",
                 "reply_to", "sent_local_time", "lapse_attested")

    def __init__(self, src: str, dst: str, kind: str,
                 payload: Any = None,
                 seq: int = 0,
                 msg_id: Optional[int] = None,
                 reply_to: Optional[int] = None,
                 sent_local_time: float = 0.0,
                 lapse_attested: int = 0) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload: Any = {} if payload is None else payload
        self.seq = seq
        self.msg_id = next(_msg_counter) if msg_id is None else msg_id
        self.reply_to = reply_to
        # Local send time stamped by the sender's clock — the lease start
        # point t_C1 of Fig. 3.  Carried on the message object for the
        # sender's own bookkeeping; the receiver never interprets it.
        self.sent_local_time = sent_local_time
        self.lapse_attested = lapse_attested

    def resend(self) -> "Message":
        """A fresh transmission of this request: its own msg_id, the
        same at-most-once key, payload and lapse attestation."""
        return Message(self.src, self.dst, self.kind, self.payload, self.seq,
                       None, None, 0.0, self.lapse_attested)

    def is_reply(self) -> bool:
        """True for ACK/NACK transport messages."""
        kind = self.kind
        return kind == _ACK_KIND or kind == _NACK_KIND

    def size_bytes(self) -> int:
        """Rough wire size: fixed header plus file data length.

        Only file data contributes — a :class:`DataWrite` request's
        ``data_bytes`` here, a function-shipped read's in
        :meth:`Ack.size_bytes` — used by experiment E1 to show the
        server moves no file data in the direct-access model.
        """
        payload = self.payload
        if type(payload) is DataWrite:
            return 64 + int(payload.data_bytes)
        return 64

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(src={self.src!r}, dst={self.dst!r}, "
                f"kind={self.kind!r}, seq={self.seq}, msg_id={self.msg_id}, "
                f"reply_to={self.reply_to})")


class Ack(Message):
    """Positive acknowledgment carrying the transaction reply payload.

    ``stamp`` is the deciding node's :data:`Stamp` (None if it stamps
    nothing); ``pending`` marks the receipt re-ACK of a retry of a
    transaction that is still running."""

    __slots__ = ("stamp", "pending")

    def __init__(self, src: str, dst: str, reply_to: int,
                 payload: Optional[Dict[str, Any]] = None,
                 stamp: Optional[Stamp] = None,
                 pending: bool = False) -> None:
        self.src = src
        self.dst = dst
        self.kind = _ACK_KIND
        self.payload = {} if payload is None else payload
        self.seq = 0
        self.msg_id = next(_msg_counter)
        self.reply_to = reply_to
        self.sent_local_time = 0.0
        self.stamp = stamp
        self.pending = pending

    def size_bytes(self) -> int:
        """Header plus the ``"data_bytes"`` a data reply carries."""
        return 64 + int(self.payload.get("data_bytes", 0))


class Nack(Message):
    """Negative acknowledgment.  With ``lease_nack`` it is the §3.3
    signal — "you missed a message; your cache is invalid; I will not
    renew your lease" — otherwise an application-level refusal whose
    ``"error"`` says why."""

    __slots__ = ("lease_nack",)

    def __init__(self, src: str, dst: str, reply_to: int,
                 payload: Optional[Dict[str, Any]] = None,
                 lease_nack: bool = False) -> None:
        self.src = src
        self.dst = dst
        self.kind = _NACK_KIND
        self.payload = {} if payload is None else payload
        self.seq = 0
        self.msg_id = next(_msg_counter)
        self.reply_to = reply_to
        self.sent_local_time = 0.0
        self.lease_nack = lease_nack


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
