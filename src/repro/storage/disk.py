"""Versioned shared block devices.

A :class:`VirtualDisk` models a SAN-attached drive: a flat array of
blocks, a fence table, and (optionally) a dlock table.  Instead of byte
payloads, each block stores a :class:`BlockRecord` — the writing
initiator, an application-level *tag* identifying the logical write, and
a per-block monotonically increasing version.  Every accepted and every
denied I/O is appended to the device history; the consistency audit
replays that history against the lock/lease trace.

The history sits on the SAN hot path (one entry per block per I/O), so
it is stored in columns and builds no object per entry: its
:class:`IoEvent`-s are built on the first read and extended from where
the last read stopped, as the trace's records are.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.storage.dlock import DlockTable
from repro.storage.fencing import FenceTable


@dataclass(frozen=True)
class BlockRecord:
    """Current content summary of one block."""

    tag: Optional[str]       # application write tag, None = never written
    version: int             # 0 = pristine
    writer: Optional[str]    # initiator of the last write
    written_at: float        # global time of the last write


@dataclass(frozen=True)
class IoEvent:
    """One entry in the device history."""

    time: float
    op: str                  # "write" | "read" | "denied_write" | "denied_read"
    initiator: str
    lba: int
    tag: Optional[str]
    version: int


@dataclass(frozen=True)
class DiskReadResult:
    """What a read returns for one block."""

    lba: int
    tag: Optional[str]
    version: int


_PRISTINE = BlockRecord(tag=None, version=0, writer=None, written_at=0.0)

#: I/O outcomes, by the code the history stores for each.
_OPS = ("write", "read", "denied_write", "denied_read")
_WRITE, _READ, _DENIED_WRITE, _DENIED_READ = range(len(_OPS))


class IoHistory:
    """A device's I/O history: one :class:`IoEvent` per block per I/O,
    in issue order, stored as columns.  Iteration and ``len`` read it
    like a list; every read returns the same event objects."""

    __slots__ = ("_times", "_ops", "_initiators", "_lbas", "_tags",
                 "_versions", "_events")

    def __init__(self) -> None:
        self._times = array("d")
        self._ops = array("B")
        self._initiators: List[str] = []
        self._lbas = array("q")
        self._tags: List[Optional[str]] = []
        self._versions = array("q")
        # Events of the first len(_events) entries.
        self._events: List[IoEvent] = []

    def record(self, time: float, op: int, initiator: str, lba: int,
               tag: Optional[str], version: int) -> None:
        """Append one entry (``op`` is an index into ``_OPS``)."""
        self._times.append(time)
        self._ops.append(op)
        self._initiators.append(initiator)
        self._lbas.append(lba)
        self._tags.append(tag)
        self._versions.append(version)

    def _synced(self) -> List[IoEvent]:
        """The event list, extended to the last recorded entry."""
        events = self._events
        start = len(events)
        stop = len(self._times)
        if start < stop:
            events.extend(map(IoEvent, self._times[start:stop],
                              map(_OPS.__getitem__, self._ops[start:stop]),
                              self._initiators[start:stop],
                              self._lbas[start:stop], self._tags[start:stop],
                              self._versions[start:stop]))
        return events

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[IoEvent]:
        return iter(self._synced())


class FencedIoError(Exception):
    """I/O was denied because the initiator is fenced at the device."""

    def __init__(self, device: str, initiator: str, op: str):
        super().__init__(f"{op} by {initiator} denied: fenced at {device}")
        self.device = device
        self.initiator = initiator


class VirtualDisk:
    """One shared disk on the SAN."""

    def __init__(self, name: str, n_blocks: int = 1 << 20):
        if n_blocks <= 0:
            raise ValueError(f"n_blocks must be positive, got {n_blocks}")
        self.name = name
        self.n_blocks = n_blocks
        self.fence_table = FenceTable(owner=name)
        self.dlocks = DlockTable(device=name)
        self._blocks: Dict[int, BlockRecord] = {}
        self.history = IoHistory()
        self.reads = 0
        self.writes = 0
        self.denied = 0

    # -- core I/O (invoked by the SAN fabric) -------------------------------
    def _check(self, lba: int, count: int) -> None:
        if lba < 0 or count < 0 or lba + count > self.n_blocks:
            raise IndexError(f"I/O [{lba}, {lba + count}) outside device "
                             f"{self.name} of {self.n_blocks} blocks")

    def write(self, initiator: str, time: float,
              block_tags: Dict[int, str]) -> Dict[int, int]:
        """Write tags to blocks, returning the new per-block versions.

        Raises :class:`FencedIoError` if the initiator is fenced.
        """
        if not block_tags:
            return {}
        lbas = sorted(block_tags)
        self._check(lbas[0], lbas[-1] - lbas[0] + 1)
        if self.fence_table.is_fenced(initiator):
            self.denied += 1
            for lba in lbas:
                self.history.record(time, _DENIED_WRITE, initiator, lba,
                                    block_tags[lba], -1)
            raise FencedIoError(self.name, initiator, "write")
        versions: Dict[int, int] = {}
        for lba in lbas:
            prev = self._blocks.get(lba, _PRISTINE)
            rec = BlockRecord(tag=block_tags[lba], version=prev.version + 1,
                              writer=initiator, written_at=time)
            self._blocks[lba] = rec
            versions[lba] = rec.version
            self.writes += 1
            self.history.record(time, _WRITE, initiator, lba, rec.tag,
                                rec.version)
        return versions

    def read(self, initiator: str, time: float, lba: int,
             count: int = 1) -> List[DiskReadResult]:
        """Read ``count`` blocks; raises :class:`FencedIoError` if fenced."""
        self._check(lba, count)
        if self.fence_table.is_fenced(initiator):
            self.denied += 1
            self.history.record(time, _DENIED_READ, initiator, lba, None,
                                -1)
            raise FencedIoError(self.name, initiator, "read")
        out = []
        for b in range(lba, lba + count):
            rec = self._blocks.get(b, _PRISTINE)
            out.append(DiskReadResult(lba=b, tag=rec.tag, version=rec.version))
            self.reads += 1
            self.history.record(time, _READ, initiator, b, rec.tag,
                                rec.version)
        return out

    # -- inspection (audit/tests; not part of the device interface) ---------
    def peek(self, lba: int) -> BlockRecord:
        """Current block state without recording a read."""
        self._check(lba, 1)
        return self._blocks.get(lba, _PRISTINE)

    def version_at(self, lba: int, time: float) -> int:
        """Block version as of a past instant (from history)."""
        v = 0
        for ev in self.history:
            if ev.op == "write" and ev.lba == lba and ev.time <= time:
                v = ev.version
        return v

    def writes_by(self, initiator: str) -> List[IoEvent]:
        """All accepted writes from one initiator."""
        return [e for e in self.history if e.op == "write" and e.initiator == initiator]
