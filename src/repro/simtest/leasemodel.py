"""One lease model per (server, client) pair, folded from a run's trace.

The paper's lease is a small state machine per pair (Figs. 3-5): the
client renews from a local start; a passive server keeps no state for
it until it suspects the client, NACKs its requests while timing it
out, and steals its locks τ(1+ε) later; §6's fence backs it up.
:class:`LeaseModel` folds the lease, fence and recovery records in trace
order into one :class:`Pair` per (server, client), which the oracles
also query, and checks each claim at the transition it governs:

- ``theorem-3.1`` at a steal: the pair's last renewed lease, read
  through the victim's clock, has expired;
- ``passive-server`` at a server send or NACK: the server originates no
  lease message and NACKs only a client it is timing out;
- ``nack-timed-out`` when a suspect window closes (or, still open, when
  read): every request the server received inside it was NACKed;
- ``expected-failure-flush`` at a lapse: the client dropped no dirty
  page while it could still flush;
- ``fenced-client-serves-no-stale-data`` when a fence window closes (or,
  still open, when read): no reassert was granted inside it; and at
  an unfence: a lapse traced since the pair last trusted the client;
- ``lock-compatibility`` at each ``client.lock`` that adopts or
  upgrades a lock: no other client relies on a conflicting lock of the
  object under a lease its last renewal, read through its clock, still
  makes usable.

It models the trace, not the implementation: it reads declared record
kinds, no client or server code.  Exemptions that depend on the whole
run apply where the findings are read (``oracles.LeaseModelOracle``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Optional, Set, Tuple

from repro.lease.contract import LeaseContract
from repro.locks.modes import LockMode, compatible
from repro.net.message import MsgKind
from repro.sim.clock import ClockEnsemble
from repro.sim.trace import TraceRecord

TIME_SLACK = 1e-6

#: Message kinds a *passive* server never originates (§3).
SERVER_LEASE_KINDS = frozenset({MsgKind.KEEPALIVE, MsgKind.LEASE_RENEW,
                                MsgKind.HEARTBEAT})

#: Transport frames (replies) — exempt from the Fig. 5 must-answer rule.
_REPLY_KINDS = frozenset({MsgKind.ACK, MsgKind.NACK})

#: The claim of §6's fence, shared with ``oracles``' disk-I/O clause.
FENCED = "fenced-client-serves-no-stale-data"

#: The single-writer claim of §2/§3, reported by ``oracles``.
LOCK_COMPATIBILITY = "lock-compatibility"

#: (claim, time, node, message, detail) of one breach the model saw.
Finding = Tuple[str, float, str, str, Dict[str, Any]]


class Pair:
    """The model's state of one (server, client) pair."""

    __slots__ = ("start", "opened", "closed", "requests", "resolved",
                 "first_demand", "fenced", "windows", "reasserts", "trusted")

    def __init__(self) -> None:
        self.start: Any = None      # local start of the last renewed lease
        self.opened: Optional[float] = None  # the open suspect window's start
        self.closed = float("-inf")  # when the last suspect window closed
        self.requests: List[Tuple[float, Any]] = []  # (time, kind) in it
        self.resolved: List[float] = []  # each suspect and steal
        self.first_demand = float("inf")  # the server's first LOCK_DEMAND
        self.fenced: Optional[float] = None  # the open fence window's start
        self.windows: List[Tuple[float, float]] = []  # closed fence windows
        self.reasserts: List[Tuple[float, Any]] = []  # (time, obj) in it
        self.trusted = float("-inf")  # the last unfence

    def fence_windows(self, now: float) -> List[Tuple[float, float]]:
        """``[fence, unfence]`` windows; an unclosed one ends at ``now``."""
        return self.windows + ([] if self.fenced is None
                               else [(self.fenced, now)])

    def resolved_since(self, time: float) -> bool:
        """Whether the server suspected or stole from the client since."""
        return any(t >= time - TIME_SLACK for t in self.resolved)


class LeaseModel:
    """Every pair's state, fed the records of :data:`KINDS` in trace
    order (messages only a server's); each check appends a finding."""

    KINDS = frozenset({"msg.send", "msg.recv", "lease.renewed",
                       "lease.suspect", "lease.server_nack", "lease.steal",
                       "client.lease_lost", "client.lock", "netcache.flush",
                       "server.steal", "server.fence", "server.unfence",
                       "server.reassert"})

    def __init__(self, contract: LeaseContract,
                 clocks: ClockEnsemble) -> None:
        self._contract, self._clocks = contract, clocks
        self.pairs: DefaultDict[Tuple[str, Any], Pair] = defaultdict(Pair)
        self.suspecting: Set[str] = set()  # servers that suspected anyone
        self._nacks: DefaultDict[str, List[float]] = defaultdict(list)
        # node -> times of a lease_lost or a lease-expired cache flush
        self.lapses: DefaultDict[str, List[float]] = defaultdict(list)
        # obj -> client -> (server, mode) of each lock a client relies on
        self.locks: DefaultDict[Any, Dict[str, Tuple[str, LockMode]]] = \
            defaultdict(dict)
        self.findings: List[Finding] = []

    def fold(self, rec: TraceRecord) -> None:
        """Take one transition; check the claim it governs."""
        kind, t, node, get = rec.kind, rec.time, rec.node, rec.get
        if kind == "msg.recv":
            pair = self.pairs.get((node, get("src")))
            if (pair is not None and pair.opened is not None
                    and get("msg_kind") not in _REPLY_KINDS):
                pair.requests.append((t, get("msg_kind")))
        elif kind == "msg.send":
            msg_kind = get("msg_kind")
            if msg_kind in SERVER_LEASE_KINDS:
                self._find("passive-server", t, node, "server sent lease "
                           f"message {msg_kind!r}", msg_kind=msg_kind,
                           dst=get("dst"))
            elif msg_kind == MsgKind.LOCK_DEMAND:
                pair = self.pairs[node, get("dst")]
                pair.first_demand = min(pair.first_demand, t)
        elif kind == "lease.renewed":
            if get("start_local") is not None:
                self.pairs[get("server"), node].start = get("start_local")
        elif kind == "lease.suspect":
            self.suspecting.add(node)
            pair = self.pairs[node, get("client")]
            pair.resolved.append(t)
            if pair.opened is None:
                pair.opened = t
        elif kind == "lease.server_nack":
            client = get("client")
            self._nacks[node].append(t)
            pair = self.pairs.get((node, client))
            if pair is None or (pair.opened is None
                                and t > pair.closed + TIME_SLACK):
                self._find("passive-server", t, node, f"server NACKed "
                           f"{client!r} outside any suspect window",
                           client=client, msg_kind=get("msg_kind"))
        elif kind == "lease.steal":
            self._steal(t, node, get("client"))
        elif kind == "server.steal":
            self.pairs[node, get("client")].resolved.append(t)
        elif kind == "server.reassert":
            pair = self.pairs[node, get("client")]
            if pair.fenced is not None:
                pair.reasserts.append((t, get("obj")))
        elif kind == "server.fence":
            # At a tie an open sorts first: void at a window's closing
            # instant, at a stray close's it opens a window that ends.
            pair = self.pairs[node, get("client")]
            if pair.fenced is None and not (pair.windows
                                            and pair.windows[-1][1] == t):
                if pair.trusted == t:
                    pair.windows.append((t, t))
                else:
                    pair.fenced = t
        elif kind == "server.unfence":
            self._unfence(t, node, get("client"))
        elif kind == "client.lock":
            self._lock(t, node, get("server"), get("obj"),
                       LockMode(get("mode")))
        elif kind == "netcache.flush":
            if get("reason") == "lease-expired":
                self.lapses[node].append(t)
        else:  # client.lease_lost
            self.lapses[node].append(t)
            dropped = int(get("dirty_dropped") or 0)
            if dropped and not int(get("in_flight") or 0):
                self._find("expected-failure-flush", t, node,
                           f"lease expired with {dropped} dirty page(s) "
                           f"dropped despite a working flush path",
                           dirty_dropped=dropped, server=get("server"))

    def open_findings(self, now: float) -> List[Finding]:
        """The findings of the windows still open at ``now``."""
        return [found for (server, client), pair in self.pairs.items()
                for found in self._unanswered(server, client, pair, now)
                + self._granted(server, client, pair, now)]

    def _unfence(self, t: float, server: str, client: Any) -> None:
        pair = self.pairs[server, client]
        if pair.fenced is not None:
            self.findings += self._granted(server, client, pair, t)
            pair.windows.append((pair.fenced, t))
            pair.fenced, pair.reasserts = None, []
        if not any(lt > pair.trusted for lt in self.lapses.get(client, ())):
            self._find(FENCED, t, server, f"server unfenced {client!r} "
                       "although the client never observably discarded "
                       "its lease state", client=client)
        pair.trusted = t

    def _granted(self, server: str, client: Any, pair: Pair,
                 end: float) -> List[Finding]:
        """The reasserts granted inside the open fence window to ``end``."""
        if pair.fenced is None:
            return []
        return [(FENCED, t, server, f"server granted fenced client "
                 f"{client!r} a reassert of object {obj} inside a fence "
                 f"window", {"client": client, "obj": obj})
                for t, obj in pair.reasserts
                if pair.fenced + TIME_SLACK < t < end - TIME_SLACK]

    def _expiry(self, server: str, client: Any) -> Optional[float]:
        """The global expiry of the pair's last renewed lease, read
        through the client's clock; None if it never held one."""
        pair = self.pairs.get((server, client))
        clock = self._clocks.clocks.get(client)
        if pair is None or pair.start is None or clock is None:
            return None
        return clock.global_time(
            self._contract.client_expiry_local(float(pair.start)))

    def _lock(self, t: float, client: str, server: str, obj: Any,
              mode: LockMode) -> None:
        holders = self.locks[obj]
        was = holders.pop(client, (server, LockMode.NONE))[1]
        if mode == LockMode.NONE:
            return
        holders[client] = (server, mode)
        if mode <= was:
            return
        for other, (srv, held) in holders.items():
            if other == client or compatible(mode, held):
                continue
            expiry = self._expiry(srv, other)
            if expiry is not None and t < expiry - TIME_SLACK:
                # Named in name order: the order a run builds its clients.
                (ca, ma), (cb, mb) = sorted(((client, mode), (other, held)))
                self._find(LOCK_COMPATIBILITY, t, ca,
                           f"clients {ca}({ma.name}) and {cb}({mb.name}) "
                           f"both hold object {obj} under live leases",
                           obj=obj, other=cb)

    def _steal(self, t: float, server: str, client: Any) -> None:
        pair = self.pairs[server, client]
        if pair.opened is not None:
            self.findings += self._unanswered(server, client, pair, t)
            pair.opened, pair.closed, pair.requests = None, t, []
        expiry = self._expiry(server, client)
        if expiry is None:
            return  # never held a lease: nothing to outlive
        if t < expiry - TIME_SLACK:
            self._find("theorem-3.1", t, server, f"locks of {client!r} stolen "
                       f"{expiry - t:.6f}s before its lease expired",
                       client=client, lease_expiry_global=expiry)

    def _unanswered(self, server: str, client: Any, pair: Pair,
                    end: float) -> List[Finding]:
        """The requests strictly inside the open suspect window up to
        ``end`` that no NACK of ``server`` answered at the same instant."""
        if pair.opened is None:
            return []
        nacks, lo, out = self._nacks.get(server, []), pair.opened, []
        for t, kind in pair.requests:
            if not lo + TIME_SLACK < t < end - TIME_SLACK:
                continue
            at = bisect_left(nacks, t - TIME_SLACK)
            if at == len(nacks) or nacks[at] > t + TIME_SLACK:
                out.append(("nack-timed-out", t, server, f"request "
                            f"{kind!r} from timed-out client {client!r} was "
                            f"not NACKed", {"client": client,
                                            "msg_kind": kind}))
        return out

    def _find(self, claim: str, t: float, node: str, message: str,
              **detail: Any) -> None:
        self.findings.append((claim, t, node, message, detail))
