"""Invariant oracles: the paper's safety claims as checkable predicates.

Each oracle watches one claim (DESIGN.md §12 maps them back to the
paper) and reports :class:`OracleViolation` records from
:meth:`Oracle.check_final`, run once after the run settles against the
trace, the disks and the server lock history.  A claim about a moment
(two clients' locks conflict while both leases are usable) is judged
where the trace records that moment, not by sampling live objects.

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
which folds the trace once into the facts the checks query; its lease
model checks the claims of each (server, client) pair as it folds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, cast

from repro.analysis.consistency import BlockAddr
from repro.core.system import StorageTankSystem
from repro.locks.manager import CACHED
from repro.locks.modes import compatible
from repro.server.lockservice import DEMAND_PATIENCE
from repro.simtest.leasemodel import FENCED, LOCK_COMPATIBILITY
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
        """What a breach is, apart from its time: the runner keeps one
        violation per (key, time)."""
        return (self.oracle, self.node, self.message)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (detail values are repr()'d)."""
        return {"oracle": self.oracle, "time": self.time, "node": self.node,
                "message": self.message,
                "detail": {k: repr(v) for k, v in self.detail.items()}}


class Oracle:
    """Base class: one paper claim, checked once the run settles."""

    #: Stable identifier (used for dedup and shrink predicates).
    name = "oracle"
    #: The paper claim this oracle guards (surfaces in DESIGN.md §12).
    claim = ""

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
    its locks and cache — is good.  The lease model judges it at each
    ``client.lock`` record that adopts or upgrades a lock; this reports
    those findings between two honest clients: a possessed client's
    local lock table lies by design (it keeps entries the server has
    long voided), and the §6 containment oracles judge it instead.
    """

    name = LOCK_COMPATIBILITY
    claim = ("§2/§3: locks cached under a live lease are exclusive — a "
             "steal completes only after the holder's lease expired")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """The model's conflicts in which no client is possessed."""
        index = RunIndex.of(system)
        byz = index.byzantine
        return [OracleViolation(claim, t, node, message, detail)
                for claim, t, node, message, detail in index.lease.findings
                if claim == self.name and node not in byz
                and detail["other"] not in byz]


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


class LeaseModelOracle(Oracle):
    """The pair claims of Figs. 3-5 and §6, checked by one model per pair.

    :class:`~repro.simtest.leasemodel.LeaseModel` names each finding
    after its claim.  This drops those the failure model exempts: a slow
    (§6) or possessed client is outside the rate-skew bound and its own
    flush; one down or SAN-cut at the lapse could not flush (§2); the E4
    ablation ``nack_suspects=False`` NACKs no suspect.  It adds the one
    check that needs the whole run: a server that never suspected anyone
    was charged no lease messages.
    """

    name = "lease-model"
    claim = ("§3/Thm 3.1/Figs. 3-5: a steal follows the victim's lease "
             "expiry; the server sends no lease message and NACKs, "
             "always and only, a client it is timing out; the phase-4 "
             "flush hardens all dirty data before the lease expires")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """The model's findings that no exemption covers."""
        index = RunIndex.of(system)
        model = index.lease
        outside = set(system.config.slow_clients) | set(index.byzantine)
        out: List[OracleViolation] = []
        for claim, t, node, message, detail in (
                model.findings + model.open_findings(system.sim.now)):
            if claim == LOCK_COMPATIBILITY:
                continue  # LockCompatibilityOracle's
            if claim == "theorem-3.1" and detail["client"] in outside:
                continue
            if claim == "expected-failure-flush" and (
                    node in outside or index.down_at(node, t)
                    or index.san_cut_at(node, t)):
                continue
            if claim == "nack-timed-out" and not getattr(
                    system.servers[node].authority, "nack_suspects", True):
                continue
            out.append(OracleViolation(claim, t, node, message, detail))
        registry = system.obs.registry
        for sname in system.servers:
            charged = registry.value("lease.server.msgs_sent", node=sname)
            if sname not in model.suspecting and charged > 0:
                out.append(OracleViolation(
                    "passive-server", system.sim.now, sname,
                    f"server charged {charged:g} lease messages without "
                    f"ever suspecting a client", {"lease_msgs_sent": charged}))
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

    §6: a client the server distrusts is fenced *at the store*.  No
    *accepted* disk I/O by the fenced initiator lands inside a fence →
    unfence window (denied I/O is the fence working).  The lease model
    checks the other clauses, reported by ``lease-model`` under this
    name: no LOCK_REASSERT is granted inside a window, and a lapse since
    the server last trusted the client earns each lift.
    """

    name = FENCED
    claim = ("§6: a fence constructed between a distrusted client and "
             "the shared store blocks all of its I/O, and the server "
             "extends it no new trust until the fence lifts")

    def check_final(self, system: StorageTankSystem) -> List[OracleViolation]:
        """Flag accepted I/O inside the lease model's fence windows."""
        out: List[OracleViolation] = []
        model, now = RunIndex.of(system).lease, system.sim.now
        for server, client in sorted(
                key for key, pair in model.pairs.items() if pair.windows
                or pair.fenced is not None):
            windows = model.pairs[server, client].fence_windows(now)
            for dname, disk in sorted(system.disks.items()):
                for ev in disk.history:
                    if ev.initiator == client and ev.op in (
                            "write", "read") and any(
                            s + TIME_SLACK < ev.time < e - TIME_SLACK
                            for s, e in windows):
                        out.append(self._violation(
                            ev.time, client,
                            f"fenced client {client!r} got an accepted "
                            f"{ev.op} at {dname}:{ev.lba} inside a fence "
                            f"window", device=dname, lba=ev.lba, op=ev.op,
                            tag=ev.tag, server=server))
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
                        pair = index.lease.pairs.get((sname, holder))
                        if pair is None or pair.resolved_since(
                                pair.first_demand):
                            continue
                        first_demand = pair.first_demand
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
        LeaseModelOracle(),
        CacheNoStaleEntryOracle(),
        FencedClientNoStaleServiceOracle(),
        CapabilityCheckedSanIoOracle(),
        ByzantineContainmentOracle(),
    ]
