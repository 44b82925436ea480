"""One index over a run's trace: everything the oracles read, folded once.

:class:`RunIndex` is the one place that turns trace records into the
facts the oracles of :mod:`repro.simtest.oracles` judge: crash and SAN
cut state, suspect and fence windows, what the servers sent, NACKed and
received, and what the namespace held when a cache node served a hit.
It folds records in emission (= time) order, and each :meth:`RunIndex.of`
folds only the records appended since the last one: live checks stay linear.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Optional, Set, Tuple
from weakref import WeakKeyDictionary, ref

from repro.analysis.consistency import ConsistencyAuditor, ConsistencyReport
from repro.core.system import StorageTankSystem
from repro.metadata.directory import Directory, NamespaceError
from repro.net.message import MsgKind
from repro.sim.trace import TraceRecord, TraceRecorder

TIME_SLACK = 1e-6

#: Message kinds a *passive* server never originates (§3).
SERVER_LEASE_KINDS = frozenset({MsgKind.KEEPALIVE, MsgKind.LEASE_RENEW,
                                MsgKind.HEARTBEAT})

#: Transport frames (replies) — exempt from the Fig. 5 must-answer rule.
_REPLY_KINDS = frozenset({MsgKind.ACK, MsgKind.NACK})

#: The record kinds the index reads (messages only a server's).
_MESSAGES = frozenset({"msg.send", "msg.recv"})
_FOLDED = _MESSAGES | {
    "fault.inject", "lease.suspect", "lease.steal",
    "server.fence", "server.unfence", "server.steal", "server.reassert",
    "lease.server_nack", "lease.renewed", "client.lease_lost",
    "netcache.flush", "meta.mutate", "netcache.hit"}

Key = Tuple[str, Any]
Timeline = List[Tuple[float, bool]]

_INDEXES: "WeakKeyDictionary[TraceRecorder, RunIndex]" = WeakKeyDictionary()


def _state_at(timeline: Timeline, time: float) -> bool:
    """The state of the last transition at or before ``time``."""
    state = False
    for t, value in timeline:
        if t > time + TIME_SLACK:
            break
        state = value
    return state


class RunIndex:
    """The facts the oracles query, for one run's trace.

    Public fields keep emission order; ``__init__`` gives their shapes.
    Queries compare times with :data:`TIME_SLACK`, except :meth:`windows`,
    whose raw pairs each oracle compares by its own rule.  Holding no
    strong reference to the trace or the system, the index goes with them.
    """

    @classmethod
    def of(cls, system: StorageTankSystem) -> "RunIndex":
        """``system``'s index, brought up to its last trace record."""
        index = _INDEXES.get(system.trace)
        if index is None:
            index = _INDEXES[system.trace] = cls(system)
        index.sync(system)
        return index

    def __init__(self, system: StorageTankSystem) -> None:
        self._system = ref(system)
        self._servers = frozenset(system.servers)
        self._folded = 0
        self._audit: Optional[Tuple[Any, ConsistencyReport]] = None
        # client -> kinds, from ``byz_<kind>:<client>`` fault labels
        self.byzantine: Dict[str, List[str]] = {}
        self._down: DefaultDict[str, Timeline] = defaultdict(list)
        self._cut: DefaultDict[str, Timeline] = defaultdict(list)
        # ("suspect" | "fence", server, client) -> [(time, closes)]
        self._edges: DefaultDict[Tuple[str, str, Any], Timeline] = \
            defaultdict(list)
        self.suspected: DefaultDict[str, Set[str]] = defaultdict(set)
        self.nacks: List[Tuple[float, str, Any, Any]] = []  # t, srv, cl, kind
        # server -> (time, src, msg_kind) per request of a suspected client
        self.requests: DefaultDict[str, List[Tuple[float, Any, Any]]] = \
            defaultdict(list)
        self.lease_sends: List[Tuple[float, str, Any, Any]] = []  # .., dst
        self.first_demand: Dict[Key, float] = {}  # (server, holder) -> t
        # (client, server) -> (time, start_local) per renewal
        self.renewals: DefaultDict[Key, List[Tuple[float, Any]]] = \
            defaultdict(list)
        self.steals: List[Tuple[float, str, str]] = []  # t, server, client
        # (time, client, dirty_dropped, in_flight, server) per lapse report
        self.lease_lost: List[Tuple[float, str, int, int, Any]] = []
        # client -> times of a lease_lost or a lease-expired cache flush
        self.lapses: DefaultDict[str, List[float]] = defaultdict(list)
        self._resolved: DefaultDict[Key, List[float]] = defaultdict(list)
        self.fenced: Set[Tuple[str, str]] = set()  # (server, client)
        self.unfences: DefaultDict[Key, List[float]] = defaultdict(list)
        self.reasserts: DefaultDict[Key, List[Tuple[float, Any]]] = \
            defaultdict(list)  # (server, client) -> (time, obj)
        self._namespace = Directory()
        self._sizes: Dict[int, int] = {}
        # (time, node, reason, record) per hit the namespace contradicts
        self.stale_hits: List[Tuple[float, str, str, TraceRecord]] = []

    def sync(self, system: StorageTankSystem) -> None:
        """Fold the records ``system``'s trace appended since the last sync."""
        trace = system.trace
        assert len(trace) >= self._folded, "the trace was cleared"
        # Messages are most of a trace; only the servers' are read.
        tail = trace.scan(_FOLDED, self._folded, self._servers, _MESSAGES)
        self._folded = len(trace)
        for rec in tail:
            self._fold(rec)

    # -- queries ------------------------------------------------------------
    def down_at(self, node: str, time: float) -> bool:
        """Whether ``node`` had crashed, and not restarted, by ``time``."""
        return _state_at(self._down.get(node, []), time)

    def crashed_since(self, node: str, time: float) -> bool:
        """Whether ``node`` crashed at any point at or after ``time``."""
        return any(down and t >= time - TIME_SLACK
                   for t, down in self._down.get(node, ()))

    def san_cut_at(self, node: str, time: float) -> bool:
        """Whether a SAN cut of ``node`` was live at ``time``."""
        return _state_at(self._cut.get(node, []), time)

    def windows(self, kind: str, server: str,
                client: str) -> List[Tuple[float, float]]:
        """``[start, end]`` windows of a (server, client) pair: ``"suspect"``
        runs suspect → steal, ``"fence"`` fence → unfence.  At a tie an open
        sorts before a close; an unclosed window ends at the current time."""
        out: List[Tuple[float, float]] = []
        start: Optional[float] = None
        for t, closes in sorted(self._edges.get((kind, server, client), ())):
            if not closes and start is None:
                start = t
            elif closes and start is not None:
                out.append((start, t))
                start = None
        if start is not None:
            system = self._system()
            assert system is not None
            out.append((start, system.sim.now))
        return out

    def resolved_since(self, server: str, client: str, time: float) -> bool:
        """Whether ``server`` suspected or stole from ``client`` since."""
        return any(t >= time - TIME_SLACK
                   for t in self._resolved.get((server, client), ()))

    def audit(self) -> ConsistencyReport:
        """The consistency audit of the run so far, run once per state."""
        system = self._system()
        assert system is not None
        at = (self._folded, system.sim.now)
        if self._audit is None or self._audit[0] != at:
            self._audit = (at, ConsistencyAuditor(system).audit())
        return self._audit[1]

    # -- folding ------------------------------------------------------------
    def _fold(self, rec: TraceRecord) -> None:
        """Fold one record whose kind is in :data:`_FOLDED` (a message
        only if a server emitted it)."""
        kind, t, node, get = rec.kind, rec.time, rec.node, rec.get
        if kind == "msg.send":
            msg_kind = get("msg_kind")
            if msg_kind in SERVER_LEASE_KINDS:
                self.lease_sends.append((t, node, msg_kind, get("dst")))
            elif msg_kind == MsgKind.LOCK_DEMAND:
                self.first_demand.setdefault((node, get("dst")), t)
        elif kind == "msg.recv":
            src = get("src")  # a request in a window follows its suspect
            if (src in self.suspected.get(node, ())
                    and get("msg_kind") not in _REPLY_KINDS):
                self.requests[node].append((t, src, get("msg_kind")))
        elif kind == "fault.inject":
            self._fault(t, str(get("label")))
        elif kind in ("lease.suspect", "lease.steal"):
            client, closes = get("client"), kind == "lease.steal"
            self._edges["suspect", node, client].append((t, closes))
            if closes:
                self.steals.append((t, node, str(client)))
            else:
                self.suspected[node].add(str(client))
                self._resolved[node, client].append(t)
        elif kind in ("server.fence", "server.unfence"):
            client, closes = get("client"), kind == "server.unfence"
            self._edges["fence", node, client].append((t, closes))
            if closes:
                self.unfences[node, client].append(t)
            else:
                self.fenced.add((node, str(client)))
        elif kind == "server.steal":
            self._resolved[node, get("client")].append(t)
        elif kind == "server.reassert":
            self.reasserts[node, get("client")].append((t, get("obj")))
        elif kind == "lease.server_nack":
            self.nacks.append((t, node, get("client"), get("msg_kind")))
        elif kind == "lease.renewed":
            self.renewals[node, get("server")].append((t, get("start_local")))
        elif kind == "client.lease_lost":
            self.lease_lost.append((t, node, int(get("dirty_dropped") or 0),
                                    int(get("in_flight") or 0),
                                    get("server")))
            self.lapses[node].append(t)
        elif kind == "netcache.flush":
            if get("reason") == "lease-expired":
                self.lapses[node].append(t)
        elif kind == "meta.mutate":
            self._mutate(rec)
        else:
            reason = self._stale_reason(str(get("key_kind")),
                                        str(get("path")), get("fingerprint"))
            if reason is not None:
                self.stale_hits.append((t, node, reason, rec))

    def _fault(self, t: float, label: str) -> None:
        head, sep, rest = label.partition(":")
        if head in ("crash", "restart"):
            self._down[rest].append((t, head == "crash"))
        elif head == "san_cut":
            self._cut[rest.rpartition("-")[0]].append((t, True))
        elif label == "heal_san":
            for timeline in self._cut.values():
                timeline.append((t, False))
        elif head.startswith("byz_") and sep and rest:
            self.byzantine.setdefault(rest, []).append(head[len("byz_"):])

    def _mutate(self, rec: TraceRecord) -> None:
        op = str(rec.get("op"))
        if op in ("create", "setattr"):
            fid = int(rec.get("file_id") or 0)
            self._sizes[fid] = int(rec.get("size") or 0)
        try:
            if op == "create":
                self._namespace.create(str(rec.get("path")), fid)
            elif op == "unlink":
                self._namespace.unlink(str(rec.get("path")))
        except NamespaceError:
            pass

    def _stale_reason(self, key_kind: str, path: str,
                      fp: Any) -> Optional[str]:
        """Why a hit serving ``fp`` disagrees with the namespace, or None."""
        if key_kind == "readdir":
            expected = tuple(self._namespace.listdir(path))
            got = tuple(fp or ())
            if got != expected:
                return (f"readdir hit for {path!r} served {got!r}, "
                        f"authoritative listing is {expected!r}")
            return None
        try:
            fid = self._namespace.lookup(path)
        except NamespaceError:
            return (f"{key_kind} hit for {path!r} served "
                    f"{fp!r} but the path does not exist")
        if key_kind == "lookup":
            if int(fp) != fid:
                return (f"lookup hit for {path!r} served file id "
                        f"{fp!r}, authoritative id is {fid}")
            return None
        got_fid, got_size = fp
        size = self._sizes.get(fid, 0)
        if int(got_fid) != fid or int(got_size) != size:
            return (f"attrs hit for {path!r} served "
                    f"(fid={got_fid}, size={got_size}), authoritative is "
                    f"(fid={fid}, size={size})")
        return None
