"""Offline consistency audit.

Ground truth comes from three independent record streams:

1. the application trace — ``app.write.ack`` (a local process was told
   its write succeeded), ``app.read`` (what a local process was given),
   ``app.error`` (the client reported a loss);
2. the disks' I/O histories — which tags actually reached persistent
   storage, when, and by whom;
3. the server lock history — who was *entitled* to do data I/O when.

The audit checks the invariants from DESIGN.md:

I2 (**no silent lost update**): for every (client, physical block), the
    *last* acknowledged write tag either reached the disk or the client
    reported an error for it.  Earlier tags on the same block by the
    same client are superseded locally and exempt.
I3 (**no stale read**): a read must not return a tag older than data
    another client had already hardened for that block *before the
    reader's entitlement began* — i.e. serving a cache that coherence
    says is invalid.  (A reader's own not-yet-flushed dirty tag is never
    stale; neither is disk data that changed *after* the read returned.)
I4 (**single writer**): every disk write must be covered by an
    EXCLUSIVE lock held (according to the server history) by the writer
    at that instant.  Naive stealing on a SAN violates this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.system import StorageTankSystem
from repro.locks.manager import CACHED, SCOPED, LockGrant
from repro.locks.modes import LockMode

BlockAddr = Tuple[str, int]  # (device, lba)


@dataclass
class Violation:
    """One detected invariant violation."""

    invariant: str         # "I2" | "I3" | "I4"
    time: float
    client: str
    detail: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<{self.invariant} @{self.time:.3f} {self.client} {self.detail}>"


@dataclass
class ConsistencyReport:
    """Outcome of a full audit."""

    lost_updates: List[Violation] = field(default_factory=list)        # I2 silent
    stranded_reported: List[Violation] = field(default_factory=list)   # lost but reported
    stale_reads: List[Violation] = field(default_factory=list)         # I3
    unsynchronized_writes: List[Violation] = field(default_factory=list)  # I4
    # Session guarantees (client-centric, weaker than coherence):
    ryw_violations: List[Violation] = field(default_factory=list)      # read-your-writes
    monotonic_violations: List[Violation] = field(default_factory=list)  # monotonic reads
    writes_acked: int = 0
    reads_checked: int = 0
    disk_writes_checked: int = 0

    @property
    def safe(self) -> bool:
        """True when no *silent* violation exists (reported losses are
        failures the protocol surfaced correctly, not safety breaks)."""
        return not (self.lost_updates or self.stale_reads
                    or self.unsynchronized_writes)

    def summary(self) -> Dict[str, int]:
        """Violation counts by class."""
        return {
            "lost_updates_silent": len(self.lost_updates),
            "stranded_reported": len(self.stranded_reported),
            "stale_reads": len(self.stale_reads),
            "unsynchronized_writes": len(self.unsynchronized_writes),
            "ryw_violations": len(self.ryw_violations),
            "monotonic_violations": len(self.monotonic_violations),
            "writes_acked": self.writes_acked,
            "reads_checked": self.reads_checked,
        }


class ConsistencyAuditor:
    """Replays a finished system's records against the invariants."""

    def __init__(self, system: StorageTankSystem) -> None:
        self.system = system

    # -- public -------------------------------------------------------------
    def audit(self) -> ConsistencyReport:
        """Run every check and return the combined report.

        The I4 lock-coverage check only applies to protocols that *have*
        a locking discipline — NFS polling takes no locks by design, so
        its disk writes are exempt (its coherence failures show up as I3
        stale reads instead).
        """
        report = ConsistencyReport()
        self._check_lost_updates(report)
        self._check_stale_reads(report)
        self._check_session_guarantees(report)
        if self.system.config.protocol != "nfs":
            self._check_unsynchronized_writes(report)
        return report

    # -- session guarantees ------------------------------------------------
    def _check_session_guarantees(self, report: ConsistencyReport) -> None:
        """Per-client read-your-writes and monotonic-reads checks.

        A tag's *rank* is the time it first became observable (its
        application ack, or its first disk write, whichever is earlier).
        Read-your-writes: a read must never return a tag ranked before
        the reader's own latest preceding write of that block.
        Monotonic reads: successive reads of a block by one client must
        not regress in rank.  Backward-moving disk content (e.g. the
        §6 slow client's late flush without a fence) trips both — from
        the *victim's* perspective, complementing the I3/I4 checks.
        """
        trace = self.system.trace
        rank: Dict[Optional[str], float] = {None: -1.0}
        for rec in trace.select(kind="app.write.ack"):
            tag = rec.get("tag")
            if tag not in rank or rec.time < rank[tag]:
                rank[tag] = rec.time
        for disk in self.system.disks.values():
            for ev in disk.history:
                if ev.op == "write" and ev.tag is not None:
                    if ev.tag not in rank or ev.time < rank[ev.tag]:
                        rank[ev.tag] = ev.time

        # Per (client, physical block): interleave own write-acks and reads.
        last_own: Dict[Tuple[str, BlockAddr], Tuple[float, str]] = {}
        last_read: Dict[Tuple[str, BlockAddr], Tuple[float, Optional[str]]] = {}
        events: List[Tuple[float, int, str, str, BlockAddr, Optional[str]]] = []
        for rec in trace.select(kind="app.write.ack"):
            for addr in rec.get("phys", []):
                events.append((rec.time, 0, "w", rec.node,
                               (addr[0], addr[1]), rec.get("tag")))
        for rec in trace.select(kind="app.read"):
            events.append((rec.time, 1, "r", rec.node,
                           (rec.get("device"), rec.get("lba")),
                           rec.get("tag")))
        events.sort(key=lambda e: (e[0], e[1]))
        for t, _o, op, client, addr, tag in events:
            key = (client, addr)
            if op == "w":
                assert tag is not None
                last_own[key] = (t, tag)
                continue
            own = last_own.get(key)
            if own is not None and tag != own[1] \
                    and rank.get(tag, -1.0) < own[0]:
                report.ryw_violations.append(Violation(
                    "RYW", t, client,
                    {"block": addr, "got": tag, "own_write": own[1]}))
            prev = last_read.get(key)
            if prev is not None and tag != prev[1] \
                    and rank.get(tag, -1.0) < rank.get(prev[1], -1.0):
                report.monotonic_violations.append(Violation(
                    "MONO", t, client,
                    {"block": addr, "got": tag, "previously": prev[1]}))
            last_read[key] = (t, tag)

    # -- I2 ------------------------------------------------------------------
    def _check_lost_updates(self, report: ConsistencyReport) -> None:
        trace = self.system.trace
        # Tags that reached any disk (flushes by anyone).
        on_disk: Set[str] = set()
        for disk in self.system.disks.values():
            for ev in disk.history:
                if ev.op == "write" and ev.tag is not None:
                    on_disk.add(ev.tag)
        errored: Set[str] = {r.get("tag") for r in trace.select(kind="app.error")}
        # Tags still sitting dirty in their writer's cache at the end of
        # the run are *in flight*, not lost — write-back simply has not
        # happened yet (horizon truncation, not a protocol failure).
        still_dirty: Set[Tuple[str, str]] = set()
        for cname, client in self.system.pool.live_items():
            cache = getattr(client, "cache", None)
            if cache is None:
                continue
            for page in cache.dirty_pages():
                if page.tag is not None:
                    still_dirty.add((cname, page.tag))

        # Last acknowledged tag per (client, physical block).
        last_tag: Dict[Tuple[str, BlockAddr], Tuple[float, str]] = {}
        for rec in trace.select(kind="app.write.ack"):
            report.writes_acked += 1
            for addr in rec.get("phys", []):
                key = (rec.node, (addr[0], addr[1]))
                prev = last_tag.get(key)
                if prev is None or rec.time >= prev[0]:
                    last_tag[key] = (rec.time, rec.get("tag"))

        seen: Set[str] = set()
        for (client, addr), (t, tag) in last_tag.items():
            if tag in on_disk or tag in seen:
                continue
            if (client, tag) in still_dirty:
                continue
            seen.add(tag)
            v = Violation("I2", t, client, {"tag": tag, "block": addr})
            if tag in errored:
                report.stranded_reported.append(v)
            else:
                report.lost_updates.append(v)

    # -- I3 ----------------------------------------------------------------
    def _check_stale_reads(self, report: ConsistencyReport) -> None:
        trace = self.system.trace
        # Per-block disk write timeline: (time, tag, writer), sorted.
        timeline: Dict[BlockAddr, List[Tuple[float, Optional[str], str]]] = {}
        for dname, disk in self.system.disks.items():
            for ev in disk.history:
                if ev.op == "write":
                    timeline.setdefault((dname, ev.lba), []).append(
                        (ev.time, ev.tag, ev.initiator))
        for addr in timeline:
            timeline[addr].sort()

        # When each client acknowledged each tag.  A client reading its own
        # not-yet-flushed tag is normal write-back behaviour — *unless*
        # another client hardened newer data in between, which can only
        # happen if coherence already failed (the reader's lock must have
        # been stolen for the other writer to proceed).
        own_ack_time: Dict[Tuple[str, str], float] = {}
        for rec in trace.select(kind="app.write.ack"):
            own_ack_time[(rec.node, rec.get("tag"))] = rec.time

        for rec in trace.select(kind="app.read"):
            report.reads_checked += 1
            addr = (rec.get("device"), rec.get("lba"))
            got = rec.get("tag")
            reader = rec.node
            writes = timeline.get(addr, [])
            latest: Optional[Tuple[float, Optional[str], str]] = None
            for w in writes:
                if w[0] <= rec.time:
                    latest = w
                else:
                    break
            ack_t = own_ack_time.get((reader, got))
            if ack_t is not None:
                foreign_between = any(
                    w[2] != reader and ack_t < w[0] <= rec.time
                    for w in writes)
                if not foreign_between:
                    continue  # legitimate read of own write-back data
                # fall through: own tag, but someone else hardened newer
                # data since we acked — we are serving an invalid cache.
            if latest is None:
                continue  # nothing hardened yet; pristine reads are fine
            latest_tag, latest_writer = latest[1], latest[2]
            if got == latest_tag:
                continue
            if latest_writer == reader:
                continue  # reader raced its own flush; not a coherence issue
            # The read returned something older than another client's
            # hardened data.  If the reader's returned tag was *never* a
            # disk state (e.g. None on a written block) or is an earlier
            # disk state, it served an invalid cache.
            report.stale_reads.append(Violation(
                "I3", rec.time, reader,
                {"block": addr, "got": got, "expected": latest_tag,
                 "written_by": latest_writer}))

    # -- I4 -----------------------------------------------------------------
    def _check_unsynchronized_writes(self, report: ConsistencyReport) -> None:
        # Reconstruct per-(file, client) EXCLUSIVE-holding intervals from
        # every server's lock history (file ids are globally unique).
        history = []
        # Each server's op-scoped (byte-range) records, for the writes no
        # whole-file EXCLUSIVE covers.
        scoped: List[List[LockGrant]] = []
        for srv in self.system.servers.values():
            history.extend([g for g in srv.locks.history if g.kind == CACHED])
            scoped.append([g for g in srv.locks.history if g.kind == SCOPED])
        history.sort(key=lambda g: g.time)
        intervals: Dict[Tuple[int, str], List[Tuple[float, float]]] = {}
        open_at: Dict[Tuple[int, str], float] = {}
        for g in history:
            key = (g.obj, g.client)
            if g.op == "grant" and g.mode == LockMode.EXCLUSIVE:
                open_at.setdefault(key, g.time)
            elif g.op == "downgrade" and g.mode != LockMode.EXCLUSIVE:
                start = open_at.pop(key, None)
                if start is not None:
                    intervals.setdefault(key, []).append((start, g.time))
            elif g.op in ("release", "steal"):
                start = open_at.pop(key, None)
                if start is not None:
                    intervals.setdefault(key, []).append((start, g.time))
        horizon = self.system.sim.now
        for key, start in open_at.items():
            intervals.setdefault(key, []).append((start, horizon))

        # Physical block -> (file id, logical block), from every server's
        # metadata.  The logical index maps a disk write back to the byte
        # span a range lock would have to cover.
        block_file: Dict[BlockAddr, Tuple[int, int]] = {}
        for srv in self.system.servers.values():
            meta = srv.metadata
            for fid in list(meta._inodes):
                ino = meta._inodes[fid]
                for logical, addr in enumerate(ino.extents.iter_physical()):
                    block_file[addr] = (fid, logical)

        slack = 1e-9
        server_names = set(self.system.servers)
        for dname, disk in self.system.disks.items():
            for ev in disk.history:
                if ev.op != "write":
                    continue
                if ev.initiator in server_names:
                    continue  # server-marshalled I/O is lock-checked upstream
                report.disk_writes_checked += 1
                entry = block_file.get((dname, ev.lba))
                if entry is None:
                    continue  # unallocated scribble; not file data
                fid, logical = entry
                covered = any(s - slack <= ev.time <= e + slack
                              for s, e in intervals.get((fid, ev.initiator), []))
                if not covered:
                    covered = self._range_covered(scoped, fid, logical,
                                                  ev.initiator, ev.time)
                if not covered:
                    report.unsynchronized_writes.append(Violation(
                        "I4", ev.time, ev.initiator,
                        {"block": (dname, ev.lba), "file": fid, "tag": ev.tag}))

    def _range_covered(self, scoped: List[List[LockGrant]], fid: int,
                       logical_block: int, client: str, time: float) -> bool:
        """Whether an EXCLUSIVE byte-range lock covered the block's byte
        span at ``time`` (range-locked sub-file I/O)."""
        from repro.storage.blockmap import BLOCK_SIZE
        lo = logical_block * BLOCK_SIZE
        hi = lo + BLOCK_SIZE
        for history in scoped:
            open_grant = None
            for (t, op, obj, c, mode, rng, _kind) in history:
                if obj != fid or c != client:
                    continue
                overlaps = rng.start < hi and lo < rng.end
                if not overlaps:
                    continue
                if op == "grant" and mode == LockMode.EXCLUSIVE \
                        and rng.start <= lo and hi <= rng.end and t <= time:
                    open_grant = t
                elif op in ("release", "steal") \
                        and open_grant is not None and open_grant <= t < time:
                    open_grant = None
            if open_grant is not None and open_grant <= time:
                return True
        return False
