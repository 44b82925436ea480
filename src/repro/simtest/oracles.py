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

Every oracle reads the run through one
:class:`~repro.simtest.runindex.RunIndex` (``RunIndex.of(system)``),
which folds the trace once into the facts the checks query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, cast

from repro.analysis.consistency import BlockAddr
from repro.core.system import StorageTankSystem
from repro.locks.manager import CACHED
from repro.locks.modes import LockMode, compatible
from repro.server.lockservice import DEMAND_PATIENCE
from repro.simtest.runindex import TIME_SLACK, RunIndex


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
        # Candidates per object in (client, lock table) order.  Only an
        # object two of them hold in conflicting modes needs the run
        # index (who is possessed) and their lease phases read.
        held: Dict[int, List[Tuple[int, str, Any, LockMode]]] = {}
        seq = 0
        for cname, client in system.pool.live_items():
            locks = getattr(client, "locks", None)
            if locks is None or getattr(client, "leases", None) is None:
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
                held.setdefault(obj, []).append((seq, cname, client, mode))
                seq += 1
        # Objects in the order their first usable holder was met.
        holders: List[Tuple[int, int, List[Tuple[str, LockMode]]]] = []
        byz = None
        for obj, candidates in held.items():
            if len(candidates) < 2 or all(
                    compatible(a[3], b[3]) for i, a in enumerate(candidates)
                    for b in candidates[i + 1:]):
                continue
            if byz is None:
                byz = RunIndex.of(system).byzantine
            # A possessed client's local lock table lies by design (it
            # keeps entries the server has long voided); the §6
            # containment oracles judge it instead.
            usable = [(n, cname, mode) for n, cname, client, mode in candidates
                      if cname not in byz and _lease_usable(client, obj)]
            if len(usable) > 1:
                holders.append((usable[0][0], obj,
                                [(cname, mode) for _, cname, mode in usable]))
        holders.sort()
        out: List[OracleViolation] = []
        now = system.sim.now
        for _, obj, entries in holders:
            for i, (ca, ma) in enumerate(entries):
                for cb, mb in entries[i + 1:]:
                    if not compatible(ma, mb):
                        out.append(self._violation(
                            now, ca,
                            f"clients {ca}({ma.name}) and {cb}({mb.name}) "
                            f"both hold object {obj} under live leases",
                            obj=obj, other=cb))
        return out


def _lease_usable(client: Any, obj: int) -> bool:
    """Whether a lease covering ``obj`` still lets ``client`` use its
    cache; a dead lease has already voided the cached lock."""
    leases = client.leases
    srv = client.server_for_file(obj)
    managers = [leases[srv]] if srv in leases else list(leases.values())
    return any(m.phase().cache_usable for m in managers)


class NoSilentLossOracle(Oracle):
    """No acknowledged write vanishes silently; no invalid cache is read.

    Wraps the offline consistency audit (invariants I2-I4) and exempts
    I2 losses whose writer crashed after the ack: volatile loss on a
    crash is the paper's stated failure model (§2).
    """

    name = "no-silent-loss"
    claim = ("§2: every acknowledged write reaches disk or is reported "
             "lost; reads never serve a cache coherence invalidated "
             "(audit invariants I2/I3/I4)")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Run the consistency audit and report I2/I3/I4 findings."""
        index = RunIndex.of(system)
        report, byz = index.audit(), index.byzantine
        out: List[OracleViolation] = []
        for v in report.lost_updates:
            if v.client in byz:
                continue  # an adversary losing its own data IS containment
            if index.crashed_since(v.client, v.time):
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
        index = RunIndex.of(system)
        for t, client, dropped, in_flight, server in index.lease_lost:
            if dropped == 0:
                continue
            if client in slow:
                continue  # outside the lease guarantee (§6): fencing's job
            if client in index.byzantine:
                continue  # a possessed client sabotages its own flush
            if in_flight > 0:
                continue  # expiry raced an op still draining; flush blocked
            if index.down_at(client, t):
                continue  # dead clients cannot flush (§2 volatile loss)
            if index.san_cut_at(client, t):
                continue  # flush path itself was down: reported I/O failure
            out.append(self._violation(
                t, client,
                f"lease expired with {dropped} dirty page(s) dropped "
                f"despite a working flush path", dirty_dropped=dropped,
                server=server))
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
        index = RunIndex.of(system)
        out = [self._violation(t, server, f"server sent lease message "
                               f"{kind!r}", msg_kind=kind, dst=dst)
               for t, server, kind, dst in index.lease_sends]
        registry = system.obs.registry
        for sname in system.servers:
            charged = registry.value("lease.server.msgs_sent", node=sname)
            if not index.suspected.get(sname) and charged > 0:
                out.append(self._violation(
                    system.sim.now, sname,
                    f"server charged {charged:g} lease messages without "
                    f"ever suspecting a client", lease_msgs_sent=charged))
        for t, server, client, kind in index.nacks:
            if not any(s - TIME_SLACK <= t <= e + TIME_SLACK for s, e
                       in index.windows("suspect", server, str(client))):
                out.append(self._violation(
                    t, server,
                    f"server NACKed {client!r} outside any suspect window",
                    client=client, msg_kind=kind))
        return out


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
        index = RunIndex.of(system)
        for sname, srv in system.servers.items():
            if not getattr(srv.authority, "nack_suspects", True):
                continue
            nack_times = [t for t, srv, _, _ in index.nacks if srv == sname]
            windows = {client: index.windows("suspect", sname, client)
                       for client in index.suspected.get(sname, ())}
            for t, client, kind in index.requests.get(sname, ()):
                if client not in windows or not any(
                        s + TIME_SLACK < t < e - TIME_SLACK
                        for s, e in windows[client]):
                    continue
                if not any(abs(nt - t) <= TIME_SLACK for nt in nack_times):
                    out.append(self._violation(
                        t, sname,
                        f"request {kind!r} from "
                        f"timed-out client {client!r} was not NACKed",
                        client=client, msg_kind=kind))
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
        contract = system.config.lease.contract()
        slow = set(system.config.slow_clients)
        index = RunIndex.of(system)
        clocks = system.clocks.clocks
        for steal_time, server, client in index.steals:
            if client in slow or client not in clocks:
                continue
            if client in index.byzantine:
                # A possessed client (above all stretch_clock, which is
                # exactly the §6 slow-computer case) is outside the
                # theorem's rate-skew assumption.
                continue
            starts = [start for t, start
                      in index.renewals.get((client, server), ())
                      if t <= steal_time + TIME_SLACK and start is not None]
            if not starts:
                continue  # never held a lease; nothing to outlive
            last_start = float(starts[-1])
            expiry_local = contract.client_expiry_local(last_start)
            expiry_global = clocks[client].global_time(expiry_local)
            if steal_time < expiry_global - TIME_SLACK:
                out.append(self._violation(
                    steal_time, server,
                    f"locks of {client!r} stolen "
                    f"{expiry_global - steal_time:.6f}s before its lease "
                    f"expired", client=client,
                    lease_expiry_global=expiry_global))
        return out


class CacheNoStaleEntryOracle(Oracle):
    """Every netcache hit served the value the servers then held.

    The cache tier's one safety claim (DESIGN.md §15): an entry served
    from soft state is indistinguishable from asking the server at that
    instant.  Servers emit a ``meta.mutate`` record at every apply point
    (post-barrier) and each hit carries a value fingerprint, so the run
    index's replay in emission (= causal) order catches any hit that
    disagrees with the namespace current at serve time.  Runs without a
    cache tier produce neither record kind and stay silent.
    """

    name = "cache-serves-no-stale-entry"
    claim = ("DESIGN.md §15: a metadata value served from a cache node "
             "always equals the value the owning server held at that "
             "moment (invalidate-before-apply + lease-scoped entries)")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Report the hits the index's namespace replay found stale."""
        return [self._violation(t, node, reason,
                                key_kind=rec.get("key_kind"),
                                path=rec.get("path"),
                                fingerprint=rec.get("fingerprint"))
                for t, node, reason, rec in RunIndex.of(system).stale_hits]


class FencedClientNoStaleServiceOracle(Oracle):
    """A fenced client touches no shared storage and regains no trust.

    §6's whole point: once the server distrusts a client it constructs a
    fence *at the store*, so even a client that ignores its lease — or
    whose commands are still in flight from a slow computer — cannot
    read or modify shared data.  Per fence → unfence window: no
    *accepted* disk I/O by the fenced initiator lands inside it (denied
    I/O is the fence doing its job); the server grants the client no
    LOCK_REASSERT inside it (the stale-capability replay hole in
    reverse); and every lift is earned — the client observably went
    through phase 4 (a lapse) since the server last trusted it, or its
    stale cache and lock table walk back in whole.  Runs on every
    schedule, adversarial or not.
    """

    name = "fenced-client-serves-no-stale-data"
    claim = ("§6: a fence constructed between a distrusted client and "
             "the shared store blocks all of its I/O, and the server "
             "extends it no new trust until the fence lifts")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Flag accepted I/O and granted reasserts inside fence windows."""
        out: List[OracleViolation] = []
        index = RunIndex.of(system)
        for server, client in sorted(index.fenced):
            windows = index.windows("fence", server, client)

            def inside(t: float) -> bool:
                return any(s + TIME_SLACK < t < e - TIME_SLACK
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
            for t, obj in index.reasserts.get((server, client), ()):
                if inside(t):
                    out.append(self._violation(
                        t, server,
                        f"server granted fenced client {client!r} a "
                        f"reassert of object {obj} inside a fence window",
                        client=client, obj=obj))
            lapses = sorted(index.lapses.get(client, ()))
            prev = float("-inf")
            for t in sorted(index.unfences.get((server, client), ())):
                if not any(prev < lt <= t + TIME_SLACK for lt in lapses):
                    out.append(self._violation(
                        t, server,
                        f"server unfenced {client!r} although the client "
                        f"never observably discarded its lease state",
                        client=client))
                prev = t
        return out


class CapabilityCheckedSanIoOracle(Oracle):
    """An adversary's SAN write is honored only under a live capability.

    Chaudhuri's complaint about NASD-style designs — any initiator can
    scribble on shared devices — is what Storage Tank's server-granted
    locks plus fencing answer: a data write is legitimate only while the
    *server-side* lock table shows the writer holding EXCLUSIVE on the
    file (the lock is the capability; the fence is its revocation).
    This oracle reports the audit's I4 findings by a possessed writer
    (NoSilentLossOracle the honest ones'); silent without adversaries.
    """

    name = "capability-checked-san-io"
    claim = ("§6/Chaudhuri: shared-store writes are honored only under "
             "a server-granted, unrevoked lock capability — fencing "
             "makes the revocation effective at the device")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Report the audit's I4 findings (unlocked disk writes) whose
        writer is a possessed client."""
        index = RunIndex.of(system)
        byz = index.byzantine
        if not byz:
            return []
        out: List[OracleViolation] = []
        for v in index.audit().unsynchronized_writes:
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
        index = RunIndex.of(system)
        byz = index.byzantine
        if not byz:
            return []
        out: List[OracleViolation] = []
        contract = system.config.lease.contract()
        now = system.sim.now
        for sname, srv in system.servers.items():
            locks = srv.locks
            rounds = srv.config.demand_escalate_rounds or 6
            budget = 2.0 * rounds * DEMAND_PATIENCE * (1.0 + contract.epsilon)
            for (obj, kind), waiters in sorted(locks._waiters.items()):
                if kind != CACHED:
                    continue
                for waiter in waiters:
                    if waiter.client in byz:
                        continue
                    for holder, held in sorted(locks.holders(obj).items()):
                        if holder not in byz or compatible(held, waiter.mode):
                            continue
                        first_demand = index.first_demand.get((sname, holder))
                        if (first_demand is None or index.resolved_since(
                                sname, holder, first_demand)):
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
