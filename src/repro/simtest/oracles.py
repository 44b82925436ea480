"""Invariant oracles: the paper's safety claims as checkable predicates.

Each oracle watches one claim (DESIGN.md §12 maps them back to the
paper) and reports :class:`OracleViolation` records.  Two check points:

- :meth:`Oracle.check_live` runs periodically *during* a fuzz run
  against live system state (lock tables, lease phases);
- :meth:`Oracle.check_final` runs once after the run settles, against
  the trace, the disks and the server lock history.

Oracles must tolerate every fault the schedule generator can inject —
crashes, partitions, SAN cuts, loss bursts, drawn clock skew — and fire
only on genuine protocol failures.  The exemptions encode the paper's
failure model: data in a crashed client's volatile cache is *expected*
to die (§2); a client whose clock breaks the ε bound is outside the
lease guarantee and needs fencing (§6); data the client could not
harden because its SAN path was cut is a reported I/O failure, not a
silent protocol loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, cast
from weakref import WeakKeyDictionary

from repro.analysis.consistency import BlockAddr, ConsistencyAuditor
from repro.core.system import StorageTankSystem
from repro.lease.contract import LeaseContract
from repro.locks.modes import LockMode, compatible
from repro.metadata.directory import Directory, NamespaceError
from repro.net.message import MsgKind
from repro.server.lockservice import DEMAND_PATIENCE
from repro.sim.trace import TraceRecord, TraceRecorder

#: Message kinds a *passive* server must never originate (§3: the
#: server keeps no lease state and runs no lease traffic of its own).
SERVER_LEASE_KINDS = frozenset({
    MsgKind.KEEPALIVE, MsgKind.LEASE_RENEW, MsgKind.HEARTBEAT,
})

#: Transport frames (replies) — exempt from the Fig. 5 must-answer rule.
_REPLY_KINDS = frozenset({MsgKind.ACK, MsgKind.NACK})

_TIME_SLACK = 1e-6


@dataclass(frozen=True)
class OracleViolation:
    """One observed breach of a safety claim."""

    oracle: str
    time: float
    node: str
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> Tuple[str, str, str]:
        """Dedup key: live checks re-observe the same breach each tick."""
        return (self.oracle, self.node, self.message)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (detail values are repr()'d)."""
        return {"oracle": self.oracle, "time": self.time, "node": self.node,
                "message": self.message,
                "detail": {k: repr(v) for k, v in self.detail.items()}}


class Oracle:
    """Base class: one paper claim, checked live and/or post-run."""

    #: Stable identifier (used for dedup and shrink predicates).
    name = "oracle"
    #: The paper claim this oracle guards (surfaces in DESIGN.md §12).
    claim = ""

    def check_live(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Checked periodically while the run executes; default: nothing."""
        return []

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Checked once after the run; most oracles override this."""
        return []

    def _violation(self, time: float, node: str, message: str,
                   **detail: Any) -> OracleViolation:
        return OracleViolation(oracle=self.name, time=time, node=node,
                               message=message, detail=detail)


# -- shared fault-history reconstruction ----------------------------------

class _FaultHistory:
    """The injected-fault timeline of one run, read from its trace
    incrementally: each read consumes only the ``fault.inject`` records
    appended since the last one and parses each label once (the live
    oracles read it every check)."""

    __slots__ = ("events", "byzantine", "_last")

    def __init__(self) -> None:
        #: (time, label) for every injected fault, in injection order.
        self.events: List[Tuple[float, str]] = []
        #: client -> possession kinds, from ``byz_<kind>:<client>`` labels.
        self.byzantine: Dict[str, List[str]] = {}
        self._last: Optional[TraceRecord] = None

    def sync(self, trace: TraceRecorder) -> "_FaultHistory":
        """Fold in the records appended since the last call."""
        records = trace.select(kind="fault.inject")
        seen = len(self.events)
        if seen and (len(records) < seen
                     or records[seen - 1] is not self._last):
            # The trace was cleared since: start over.
            self.events, self.byzantine, seen = [], {}, 0
        for rec in records[seen:]:
            label = str(rec.get("label"))
            self.events.append((rec.time, label))
            if label.startswith("byz_"):
                head, sep, client = label.partition(":")
                if sep and client:
                    self.byzantine.setdefault(client, []).append(
                        head[len("byz_"):])
        if records:
            self._last = records[-1]
        return self


_FAULT_HISTORIES: "WeakKeyDictionary[TraceRecorder, _FaultHistory]" = (
    WeakKeyDictionary())


def _fault_history(system: StorageTankSystem) -> _FaultHistory:
    """``system``'s fault history, brought up to date."""
    history = _FAULT_HISTORIES.get(system.trace)
    if history is None:
        history = _FAULT_HISTORIES[system.trace] = _FaultHistory()
    return history.sync(system.trace)


def _fault_events(system: StorageTankSystem) -> List[Tuple[float, str]]:
    """(time, label) for every injected fault, from the trace."""
    return _fault_history(system).events


def _crashed_before(system: StorageTankSystem, node: str,
                    time: float) -> bool:
    """Whether ``node``'s most recent crash/restart event at or before
    ``time`` was a crash (i.e. the node was down, or died, by then)."""
    state = False
    for t, label in _fault_events(system):
        if t > time + _TIME_SLACK:
            break
        if label == f"crash:{node}":
            state = True
        elif label == f"restart:{node}":
            state = False
    return state


def _ever_crashed_at_or_after(system: StorageTankSystem, node: str,
                              time: float) -> bool:
    """Whether ``node`` crashed at any point at/after ``time``."""
    return any(label == f"crash:{node}" and t >= time - _TIME_SLACK
               for t, label in _fault_events(system))


def _san_cut_active(system: StorageTankSystem, initiator: str,
                    time: float) -> bool:
    """Whether any SAN cut involving ``initiator`` was live at ``time``."""
    prefix = f"san_cut:{initiator}-"
    active = False
    for t, label in _fault_events(system):
        if t > time + _TIME_SLACK:
            break
        if label.startswith(prefix):
            active = True
        elif label == "heal_san":
            active = False
    return active


def _contract(system: StorageTankSystem) -> LeaseContract:
    return system.config.lease.contract()


def _byzantine_clients(system: StorageTankSystem) -> Dict[str, List[str]]:
    """client -> possession kinds, parsed from ``byz_<kind>:<client>``
    fault labels.  A client possessed by *any* misbehavior is outside
    the cooperative protocol: the honest-client oracles exempt it and
    the §6 containment oracles take over."""
    return _fault_history(system).byzantine


def _windows(system: StorageTankSystem, server: str, client: str,
             open_kind: str, close_kind: str) -> List[Tuple[float, float]]:
    """[start, end] windows for one (server, client) pair, opened by
    ``open_kind`` records and closed by ``close_kind`` ones (fence →
    unfence, suspect → steal); an unclosed window extends to the end of
    the run."""
    events: List[Tuple[float, bool]] = []
    for kind, closes in ((open_kind, False), (close_kind, True)):
        events.extend((rec.time, closes)
                      for rec in system.trace.select(kind=kind)
                      if rec.node == server and rec.get("client") == client)
    windows: List[Tuple[float, float]] = []
    start: Optional[float] = None
    for t, closes in sorted(events):
        if not closes and start is None:
            start = t
        elif closes and start is not None:
            windows.append((start, t))
            start = None
    if start is not None:
        windows.append((start, system.sim.now))
    return windows


# -- the oracles ----------------------------------------------------------

class LockCompatibilityOracle(Oracle):
    """No two clients hold conflicting locks while both caches are valid.

    The system-wide single-writer guarantee (§2, §3): a steal must never
    complete while the victim still believes its lease — and therefore
    its locks and cache — is good.  Checked *live* because the final
    lock tables of a finished run are usually clean.
    """

    name = "lock-compatibility"
    claim = ("§2/§3: locks cached under a live lease are exclusive — a "
             "steal completes only after the holder's lease expired")

    def check_live(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Flag conflicting locks concurrently held under usable leases."""
        byz = _byzantine_clients(system)
        holders: Dict[int, List[Tuple[str, LockMode]]] = {}
        for cname, client in system.pool.live_items():
            if cname in byz:
                # A possessed client's local lock table lies by design
                # (it keeps entries the server has long voided); the §6
                # containment oracles judge it instead.
                continue
            locks = getattr(client, "locks", None)
            leases = getattr(client, "leases", None)
            if locks is None or leases is None:
                continue
            revoking = client.lockclient._revoking
            for obj, mode in locks.all_held():
                if mode == LockMode.NONE:
                    continue
                if obj in revoking:
                    # Demand compliance in progress: the cache is already
                    # invalidated and new ops are gated, so the table
                    # entry is bookkeeping lag while the release's ACK is
                    # in flight — not a usable lock.
                    continue
                srv = client.server_for_file(obj)
                managers = ([leases[srv]] if srv in leases
                            else list(leases.values()))
                if not any(m.phase().cache_usable for m in managers):
                    continue  # lease dead: the cached lock is already void
                holders.setdefault(obj, []).append((cname, mode))
        out: List[OracleViolation] = []
        now = system.sim.now
        for obj, entries in holders.items():
            for i, (ca, ma) in enumerate(entries):
                for cb, mb in entries[i + 1:]:
                    if not compatible(ma, mb):
                        out.append(self._violation(
                            now, ca,
                            f"clients {ca}({ma.name}) and {cb}({mb.name}) "
                            f"both hold object {obj} under live leases",
                            obj=obj, other=cb))
        return out


class NoSilentLossOracle(Oracle):
    """No acknowledged write vanishes silently; no invalid cache is read.

    Wraps the offline :class:`ConsistencyAuditor` (invariants I2-I4)
    and exempts I2 losses whose writer crashed after the ack — volatile
    loss on a crash is the paper's stated failure model (§2), not a
    protocol failure.
    """

    name = "no-silent-loss"
    claim = ("§2: every acknowledged write reaches disk or is reported "
             "lost; reads never serve a cache coherence invalidated "
             "(audit invariants I2/I3/I4)")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Run the consistency audit and report I2/I3/I4 findings."""
        report = ConsistencyAuditor(system).audit()
        byz = _byzantine_clients(system)
        out: List[OracleViolation] = []
        for v in report.lost_updates:
            if v.client in byz:
                continue  # an adversary losing its own data IS containment
            if _ever_crashed_at_or_after(system, v.client, v.time):
                continue  # died with the writer's volatile cache (§2)
            out.append(self._violation(
                v.time, v.client,
                f"acked write {v.detail.get('tag')!r} silently lost",
                **v.detail))
        for v in report.stale_reads:
            if v.client in byz:
                continue  # self-inflicted; §6 judges the honest side only
            out.append(self._violation(
                v.time, v.client,
                f"stale read of {v.detail.get('block')}: got "
                f"{v.detail.get('got')!r} after newer data hardened",
                **v.detail))
        for v in report.unsynchronized_writes:
            if v.client in byz:
                continue  # capability-checked-san-io owns adversary writes
            out.append(self._violation(
                v.time, v.client,
                f"disk write to {v.detail.get('block')} without an "
                f"EXCLUSIVE lock", **v.detail))
        return out


class ExpectedFailureFlushOracle(Oracle):
    """A client that loses its lease flushed its dirty data first.

    Fig. 4's phase-4 guarantee: the flush phase begins early enough that
    everything dirty is hardened to the SAN before expiry, so an
    isolated client loses *service*, not *data*.  Fires when a lease
    expiry dropped dirty pages with no excuse: the client was up, its
    SAN path worked, its clock was in bound and no straggling op held
    the flush hostage.
    """

    name = "expected-failure-flush"
    claim = ("§3.2/Fig. 4: the expected-failure flush hardens all dirty "
             "data to the SAN before the lease expires")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Flag expected-failure paths that dropped dirty data without cause."""
        out: List[OracleViolation] = []
        slow = set(system.config.slow_clients)
        byz = _byzantine_clients(system)
        for rec in system.trace.select(kind="client.lease_lost"):
            dropped = int(rec.get("dirty_dropped") or 0)
            if dropped == 0:
                continue
            client = rec.node
            if client in slow:
                continue  # outside the lease guarantee (§6): fencing's job
            if client in byz:
                continue  # a possessed client sabotages its own flush
            if int(rec.get("in_flight") or 0) > 0:
                continue  # expiry raced an op still draining; flush blocked
            if _crashed_before(system, client, rec.time):
                continue  # dead clients cannot flush (§2 volatile loss)
            if _san_cut_active(system, client, rec.time):
                continue  # flush path itself was down: reported I/O failure
            out.append(self._violation(
                rec.time, client,
                f"lease expired with {dropped} dirty page(s) dropped "
                f"despite a working flush path", dirty_dropped=dropped,
                server=rec.get("server")))
        return out


class PassiveServerOracle(Oracle):
    """The server stays lease-passive (the paper's headline property).

    §3: during normal operation the server keeps no lease records and
    sends no lease messages.  Three checks: (a) no server ever *sends* a
    lease-kind message; (b) a server that never suspected anyone charged
    zero lease messages; (c) every server NACK falls inside a suspect
    window — the only situation in which the lease protocol makes the
    server do anything at all.
    """

    name = "passive-server"
    claim = ("§3: the server retains no lease state and initiates no "
             "lease messages; NACKs occur only while timing a client out")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Flag server-originated lease traffic and out-of-window NACKs."""
        out: List[OracleViolation] = []
        servers = system.servers
        for rec in system.trace.select(kind="msg.send"):
            if rec.node in servers and rec.get("msg_kind") in SERVER_LEASE_KINDS:
                out.append(self._violation(
                    rec.time, rec.node,
                    f"server sent lease message {rec.get('msg_kind')!r}",
                    msg_kind=rec.get("msg_kind"), dst=rec.get("dst")))
        registry = system.obs.registry
        for sname in servers:
            suspects = [r for r in system.trace.select(kind="lease.suspect")
                        if r.node == sname]
            charged = registry.value("lease.server.msgs_sent", node=sname)
            if not suspects and charged > 0:
                out.append(self._violation(
                    system.sim.now, sname,
                    f"server charged {charged:g} lease messages without "
                    f"ever suspecting a client", lease_msgs_sent=charged))
        for rec in system.trace.select(kind="lease.server_nack"):
            if not _in_suspect_window(system, rec.node,
                                      str(rec.get("client")), rec.time):
                out.append(self._violation(
                    rec.time, rec.node,
                    f"server NACKed {rec.get('client')!r} outside any "
                    f"suspect window", client=rec.get("client"),
                    msg_kind=rec.get("msg_kind")))
        return out


def _in_suspect_window(system: StorageTankSystem, server: str,
                       client: str, time: float) -> bool:
    return any(s - _TIME_SLACK <= time <= e + _TIME_SLACK
               for s, e in _windows(system, server, client,
                                    "lease.suspect", "lease.steal"))


class NackTimedOutOracle(Oracle):
    """A request from a client being timed out is answered with a NACK.

    §3.3/Fig. 5: the server can neither ACK (it would renew the lease it
    is expiring) nor stay silent (the client would hang in retries) — it
    must NACK so the client learns its cache is invalid right away.
    Skipped when the ablation knob ``nack_suspects=False`` is set.
    """

    name = "nack-timed-out"
    claim = ("§3.3/Fig. 5: while a client is being timed out, its "
             "requests are answered with a NACK, never ACKed or dropped")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Flag suspect-window requests that were not answered with a NACK."""
        out: List[OracleViolation] = []
        for sname, srv in system.servers.items():
            if not getattr(srv.authority, "nack_suspects", True):
                continue
            nack_times = [r.time for r in
                          system.trace.select(kind="lease.server_nack")
                          if r.node == sname]
            windows = {client: _windows(system, sname, client,
                                        "lease.suspect", "lease.steal")
                       for client in {str(r.get("client")) for r in
                                      system.trace.select(kind="lease.suspect")
                                      if r.node == sname}}
            for rec in system.trace.select(kind="msg.recv"):
                client = rec.get("src")
                if (rec.node != sname or client not in windows
                        or rec.get("msg_kind") in _REPLY_KINDS):
                    continue
                t = rec.time
                if not any(s + _TIME_SLACK < t < e - _TIME_SLACK
                           for s, e in windows[client]):
                    continue
                if not any(abs(nt - t) <= _TIME_SLACK for nt in nack_times):
                    out.append(self._violation(
                        t, sname,
                        f"request {rec.get('msg_kind')!r} from "
                        f"timed-out client {client!r} was not NACKed",
                        client=client, msg_kind=rec.get("msg_kind")))
        return out


class Theorem31Oracle(Oracle):
    """Steals happen only after the victim's lease provably expired.

    Theorem 3.1: with rate-synchronized clocks (bound ε), a server that
    waits τ(1+ε) after its last ACK to a client outlives every lease
    interval that ACK could have started.  Checked from the trace: each
    ``lease.steal`` must postdate the global expiry of the victim's last
    renewed lease, computed through the victim's own skewed clock.
    Clients configured to violate the clock bound (§6) are exempt —
    that is precisely the case the theorem does not cover.
    """

    name = "theorem-3.1"
    claim = ("§3 Thm 3.1: the server's τ(1+ε) wait strictly covers the "
             "client's τ lease interval under the rate-skew bound")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Flag steals that precede the stolen client's lease expiry bound."""
        out: List[OracleViolation] = []
        contract = _contract(system)
        slow = set(system.config.slow_clients)
        byz = _byzantine_clients(system)
        clocks = system.clocks.clocks
        renewals = list(system.trace.select(kind="lease.renewed"))
        for steal in system.trace.select(kind="lease.steal"):
            client = str(steal.get("client"))
            if client in slow or client not in clocks:
                continue
            if client in byz:
                # A possessed client (above all stretch_clock, which is
                # exactly the §6 slow-computer case) is outside the
                # theorem's rate-skew assumption.
                continue
            server = steal.node
            last_start: Optional[float] = None
            for rec in renewals:
                if (rec.node == client and rec.get("server") == server
                        and rec.time <= steal.time + _TIME_SLACK):
                    start = rec.get("start_local")
                    if start is not None:
                        last_start = float(start)
            if last_start is None:
                continue  # never held a lease; nothing to outlive
            expiry_local = contract.client_expiry_local(last_start)
            expiry_global = clocks[client].global_time(expiry_local)
            if steal.time < expiry_global - _TIME_SLACK:
                out.append(self._violation(
                    steal.time, server,
                    f"locks of {client!r} stolen "
                    f"{expiry_global - steal.time:.6f}s before its lease "
                    f"expired", client=client,
                    lease_expiry_global=expiry_global))
        return out


class CacheNoStaleEntryOracle(Oracle):
    """Every netcache hit served the value the servers then held.

    The cache tier's one safety claim (DESIGN.md §15): an entry served
    from soft state is indistinguishable from asking the server at that
    instant.  The servers emit an authoritative ``meta.mutate`` record
    at every apply point (post-barrier) and each cache hit carries a
    value fingerprint, so replaying the trace in emission (= causal)
    order rebuilds the namespace and catches any hit whose fingerprint
    disagrees with the metadata state current at serve time.  Runs
    without a cache tier produce neither record kind and stay silent.
    """

    name = "cache-serves-no-stale-entry"
    claim = ("DESIGN.md §15: a metadata value served from a cache node "
             "always equals the value the owning server held at that "
             "moment (invalidate-before-apply + lease-scoped entries)")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Replay meta.mutate vs netcache.hit records in causal order."""
        out: List[OracleViolation] = []
        namespace = Directory()
        sizes: Dict[int, int] = {}
        for rec in system.trace.records:
            if rec.kind == "meta.mutate":
                op = str(rec.get("op"))
                if op == "create":
                    fid = int(rec.get("file_id") or 0)
                    try:
                        namespace.create(str(rec.get("path")), fid)
                    except NamespaceError:
                        pass
                    sizes[fid] = int(rec.get("size") or 0)
                elif op == "setattr":
                    sizes[int(rec.get("file_id") or 0)] = \
                        int(rec.get("size") or 0)
                elif op == "unlink":
                    try:
                        namespace.unlink(str(rec.get("path")))
                    except NamespaceError:
                        pass
            elif rec.kind == "netcache.hit":
                stale = self._stale_hit(rec, namespace, sizes)
                if stale is not None:
                    out.append(self._violation(
                        rec.time, rec.node, stale,
                        key_kind=rec.get("key_kind"), path=rec.get("path"),
                        fingerprint=rec.get("fingerprint")))
        return out

    @staticmethod
    def _stale_hit(rec: Any, namespace: Directory,
                   sizes: Dict[int, int]) -> Optional[str]:
        """Reason string when the hit disagrees with current state."""
        key_kind = str(rec.get("key_kind"))
        path = str(rec.get("path"))
        fp = rec.get("fingerprint")
        if key_kind == "readdir":
            expected = tuple(namespace.listdir(path))
            got = tuple(fp or ())
            if got != expected:
                return (f"readdir hit for {path!r} served {got!r}, "
                        f"authoritative listing is {expected!r}")
            return None
        try:
            fid = namespace.lookup(path)
        except NamespaceError:
            return (f"{key_kind} hit for {path!r} served "
                    f"{fp!r} but the path does not exist")
        if key_kind == "lookup":
            if int(fp) != fid:
                return (f"lookup hit for {path!r} served file id "
                        f"{fp!r}, authoritative id is {fid}")
            return None
        got_fid, got_size = fp
        if int(got_fid) != fid or int(got_size) != sizes.get(fid, 0):
            return (f"attrs hit for {path!r} served "
                    f"(fid={got_fid}, size={got_size}), authoritative is "
                    f"(fid={fid}, size={sizes.get(fid, 0)})")
        return None


class FencedClientNoStaleServiceOracle(Oracle):
    """A fenced client touches no shared storage and regains no trust.

    §6's whole point: once the server distrusts a client it constructs a
    fence *at the store*, so even a client that ignores its lease — or
    whose commands are still in flight from a slow computer — cannot
    read or modify shared data.  Two checks per fence window (from
    ``server.fence``/``server.unfence`` trace records):

    - no *accepted* disk I/O by the fenced initiator lands inside the
      window (denied I/O is the fence doing its job);
    - the server grants the fenced client no LOCK_REASSERT inside the
      window (re-trusting a distrusted incarnation's lock claims is the
      stale-capability replay hole in reverse);
    - every fence *lift* is earned: the client observably went through
      phase 4 (a ``client.lease_lost`` / lease-expired cache flush) since
      the last time the server trusted it — unfencing an incarnation
      that never discarded its lease state readmits its stale cache and
      stale lock table whole.

    Runs on every schedule, adversarial or not.
    """

    name = "fenced-client-serves-no-stale-data"
    claim = ("§6: a fence constructed between a distrusted client and "
             "the shared store blocks all of its I/O, and the server "
             "extends it no new trust until the fence lifts")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Flag accepted I/O and granted reasserts inside fence windows."""
        out: List[OracleViolation] = []
        pairs = sorted({(rec.node, str(rec.get("client")))
                        for rec in system.trace.select(kind="server.fence")})
        for server, client in pairs:
            windows = _windows(system, server, client,
                               "server.fence", "server.unfence")

            def inside(t: float) -> bool:
                return any(s + _TIME_SLACK < t < e - _TIME_SLACK
                           for s, e in windows)

            for dname, disk in sorted(system.disks.items()):
                for ev in disk.history:
                    if ev.initiator != client or ev.op not in ("write",
                                                               "read"):
                        continue
                    if inside(ev.time):
                        out.append(self._violation(
                            ev.time, client,
                            f"fenced client {client!r} got an accepted "
                            f"{ev.op} at {dname}:{ev.lba} inside a fence "
                            f"window", device=dname, lba=ev.lba, op=ev.op,
                            tag=ev.tag, server=server))
            for rec in system.trace.select(kind="server.reassert"):
                if (rec.node == server and rec.get("client") == client
                        and inside(rec.time)):
                    out.append(self._violation(
                        rec.time, server,
                        f"server granted fenced client {client!r} a "
                        f"reassert of object {rec.get('obj')} inside a "
                        f"fence window", client=client, obj=rec.get("obj")))
            out.extend(self._unearned_unfences(system, server, client))
        return out

    def _unearned_unfences(self, system: StorageTankSystem, server: str,
                           client: str) -> List[OracleViolation]:
        """Unfences with no observed lapse since the previous re-trust."""
        lapses = self._lapse_times(system, client)
        out: List[OracleViolation] = []
        prev = float("-inf")
        unfences = sorted(rec.time for rec
                          in system.trace.select(kind="server.unfence")
                          if rec.node == server
                          and rec.get("client") == client)
        for t in unfences:
            if not any(prev < lt <= t + _TIME_SLACK for lt in lapses):
                out.append(self._violation(
                    t, server,
                    f"server unfenced {client!r} although the client "
                    f"never observably discarded its lease state",
                    client=client))
            prev = t
        return out

    @staticmethod
    def _lapse_times(system: StorageTankSystem, client: str) -> List[float]:
        """When ``client`` observably went through phase 4 (lapse)."""
        times = [rec.time for rec
                 in system.trace.select(kind="client.lease_lost")
                 if rec.node == client]
        times.extend(rec.time for rec
                     in system.trace.select(kind="netcache.flush")
                     if rec.node == client
                     and rec.get("reason") == "lease-expired")
        return sorted(times)


class CapabilityCheckedSanIoOracle(Oracle):
    """An adversary's SAN write is honored only under a live capability.

    Chaudhuri's complaint about NASD-style designs — any initiator can
    scribble on shared devices — is what Storage Tank's server-granted
    locks plus fencing answer: a data write is legitimate only while the
    *server-side* lock table shows the writer holding EXCLUSIVE on the
    file (the lock is the capability; the fence is its revocation).
    That is the consistency audit's I4; this oracle reports the I4
    findings whose writer is possessed, and NoSilentLossOracle reports
    the honest writers'.  Silent on runs without adversaries.
    """

    name = "capability-checked-san-io"
    claim = ("§6/Chaudhuri: shared-store writes are honored only under "
             "a server-granted, unrevoked lock capability — fencing "
             "makes the revocation effective at the device")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Report the audit's I4 findings (unlocked disk writes) whose
        writer is a possessed client."""
        byz = _byzantine_clients(system)
        if not byz:
            return []
        out: List[OracleViolation] = []
        for v in ConsistencyAuditor(system).audit().unsynchronized_writes:
            if v.client not in byz:
                continue
            device, lba = cast(BlockAddr, v.detail["block"])
            out.append(self._violation(
                v.time, v.client,
                f"adversary {v.client!r} landed write "
                f"{v.detail.get('tag')!r} on {device}:{lba} "
                f"(file {v.detail.get('file')}) with no covering lock "
                f"capability", **v.detail))
        return out


class ByzantineContainmentOracle(Oracle):
    """No honest client starves forever behind an adversary.

    The §6 claim is containment, not prevention — an adversary may
    corrupt *its own* data and burn *its own* lease, but no honest
    client may wait forever behind a conflicting adversary holding: the
    demand-escalation path must eventually suspect, steal from and
    fence the silent holder.  (The honest side's consistency under an
    adversary is NoSilentLossOracle's claim, checked on every run.)
    Silent on runs without adversaries.
    """

    name = "byzantine-containment"
    claim = ("§6: fencing contains a client that fails to respect its "
             "lease — an honest waiter behind its conflicting lock is "
             "served once demand escalation suspects, steals and fences")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Honest waiters stuck behind an unresolved adversary holder."""
        byz = _byzantine_clients(system)
        if not byz:
            return []
        out: List[OracleViolation] = []
        contract = _contract(system)
        now = system.sim.now
        for sname, srv in system.servers.items():
            locks = srv.locks
            rounds = srv.config.demand_escalate_rounds or 6
            budget = 2.0 * rounds * DEMAND_PATIENCE * (1.0 + contract.epsilon)
            for obj, waiters in sorted(locks._waiters.items()):
                for waiter in waiters:
                    if waiter.client in byz:
                        continue
                    for holder, held in sorted(locks.holders(obj).items()):
                        if holder not in byz or compatible(held, waiter.mode):
                            continue
                        first_demand = self._first_demand(system, sname,
                                                          holder)
                        if first_demand is None:
                            continue
                        if self._resolved_after(system, sname, holder,
                                                first_demand):
                            continue
                        if now - first_demand > budget:
                            out.append(self._violation(
                                now, waiter.client,
                                f"honest client {waiter.client!r} starved "
                                f"on object {obj} behind adversary "
                                f"{holder!r} for "
                                f"{now - first_demand:.1f}s with no "
                                f"escalation", obj=obj, holder=holder,
                                first_demand=first_demand))
        return out

    @staticmethod
    def _first_demand(system: StorageTankSystem, server: str,
                      holder: str) -> Optional[float]:
        for rec in system.trace.select(kind="msg.send"):
            if (rec.node == server and rec.get("dst") == holder
                    and rec.get("msg_kind") == str(MsgKind.LOCK_DEMAND)):
                return rec.time
        return None

    @staticmethod
    def _resolved_after(system: StorageTankSystem, server: str,
                        holder: str, time: float) -> bool:
        for kind in ("lease.suspect", "server.steal"):
            for rec in system.trace.select(kind=kind):
                if (rec.node == server and rec.get("client") == holder
                        and rec.time >= time - _TIME_SLACK):
                    return True
        return False


def default_oracles() -> List[Oracle]:
    """The standard invariant library, one instance each."""
    return [
        LockCompatibilityOracle(),
        NoSilentLossOracle(),
        ExpectedFailureFlushOracle(),
        PassiveServerOracle(),
        NackTimedOutOracle(),
        Theorem31Oracle(),
        CacheNoStaleEntryOracle(),
        FencedClientNoStaleServiceOracle(),
        CapabilityCheckedSanIoOracle(),
        ByzantineContainmentOracle(),
    ]
