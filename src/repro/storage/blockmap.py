"""Extents and file-offset → device-block resolution.

Storage Tank separates metadata from data (paper §1.1): servers keep the
location of each file's blocks on their private high-performance store;
the shared disks hold only data blocks.  An :class:`ExtentMap` is that
piece of metadata: an ordered list of :class:`Extent` runs mapping a
file's logical block space onto ``(device, lba)`` ranges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, List, Sequence, Tuple

#: Bytes per data block on the shared disks.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class Extent:
    """A contiguous run of blocks on one device."""

    device: str
    start_lba: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"extent length must be positive, got {self.length}")
        if self.start_lba < 0:
            raise ValueError(f"negative start_lba {self.start_lba}")

    @property
    def end_lba(self) -> int:
        """One past the last lba of the run."""
        return self.start_lba + self.length

    def overlaps(self, other: "Extent") -> bool:
        """Whether two extents share any physical block."""
        return (self.device == other.device
                and self.start_lba < other.end_lba
                and other.start_lba < self.end_lba)


@dataclass
class ExtentMap:
    """Logical-block → physical-block mapping for one file.

    ``layout_gen`` names the map's append-only lineage (Lustre's layout
    generation): :meth:`append` keeps it, so of two maps of one file with
    the same generation the shorter is a prefix of the longer, and
    whoever changes the run list in any other way must hand out a map
    with a different generation.  Grow the map only through
    :meth:`append` / :meth:`apply_runs`: they maintain the cumulative
    block ends that make :meth:`resolve` a bisection.
    """

    extents: List[Extent] = field(default_factory=list)
    layout_gen: int = 0
    _ends: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._ends = list(accumulate(e.length for e in self.extents))

    @property
    def block_count(self) -> int:
        """Total mapped logical blocks."""
        return self._ends[-1] if self._ends else 0

    @property
    def size_bytes(self) -> int:
        """Mapped capacity in bytes."""
        return self.block_count * BLOCK_SIZE

    def append(self, extent: Extent) -> None:
        """Grow the file by one extent (allocator responsibility to avoid
        overlap with other files)."""
        ends = self._ends
        ends.append((ends[-1] if ends else 0) + extent.length)
        self.extents.append(extent)

    def apply_runs(self, start: int, runs: Sequence[Tuple[str, int, int]]) -> None:
        """Adopt wire-form ``runs`` that sit at extent index ``start`` of
        this map's lineage, by position: runs this map already holds are
        skipped, the rest appended (and validated, once each).  Applying
        the same or an older delta again therefore changes nothing."""
        skip = len(self.extents) - start
        if skip < 0:
            raise ValueError(f"runs start at extent {start}, map holds "
                             f"{len(self.extents)}")
        for device, lba, length in runs[skip:]:
            self.append(Extent(device=device, start_lba=int(lba),
                               length=int(length)))

    def resolve(self, logical_block: int) -> Tuple[str, int]:
        """Physical ``(device, lba)`` of a logical block index."""
        if logical_block < 0:
            raise IndexError(f"negative logical block {logical_block}")
        ends = self._ends
        i = bisect_right(ends, logical_block)
        if i == len(ends):
            raise IndexError(f"logical block {logical_block} beyond mapped "
                             f"extent ({self.block_count} blocks)")
        e = self.extents[i]
        return (e.device, e.start_lba + e.length - ends[i] + logical_block)

    def resolve_range(self, logical_start: int, count: int) -> List[Tuple[str, int, int]]:
        """Physical runs ``(device, lba, length)`` covering a logical range."""
        if count <= 0:
            return []
        end = logical_start + count
        # IndexError outside the map, as resolving block by block raises.
        self.resolve(logical_start)
        self.resolve(end - 1)
        ends = self._ends
        i = bisect_right(ends, logical_start)
        runs: List[Tuple[str, int, int]] = []
        lb = logical_start
        while lb < end:
            e = self.extents[i]
            lba = e.start_lba + e.length - ends[i] + lb
            take = min(end, ends[i]) - lb
            if runs and runs[-1][0] == e.device and runs[-1][1] + runs[-1][2] == lba:
                dev0, lba0, len0 = runs[-1]
                runs[-1] = (dev0, lba0, len0 + take)
            else:
                runs.append((e.device, lba, take))
            lb += take
            i += 1
        return runs

    def iter_physical(self) -> Iterator[Tuple[str, int]]:
        """All (device, lba) pairs in logical order."""
        for e in self.extents:
            for lba in range(e.start_lba, e.end_lba):
                yield (e.device, lba)


def extents_to_payload(extents: "ExtentMap", start: int = 0) -> List[Tuple[str, int, int]]:
    """Wire form of an extent map (from extent index ``start`` on) for
    control-network replies."""
    return [(e.device, e.start_lba, e.length) for e in extents.extents[start:]]


def extents_from_payload(runs: Sequence[Tuple[str, int, int]]) -> "ExtentMap":
    """Parse a full wire-form run list into a new extent map."""
    em = ExtentMap()
    em.apply_runs(0, runs)
    return em


def bytes_to_blocks(nbytes: int) -> int:
    """Blocks needed to hold ``nbytes`` (ceiling division)."""
    if nbytes < 0:
        raise ValueError(f"negative byte count {nbytes}")
    return (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE


def byte_range_to_blocks(offset: int, nbytes: int) -> Tuple[int, int]:
    """Logical ``(first_block, block_count)`` covering a byte range."""
    if offset < 0 or nbytes < 0:
        raise ValueError("negative offset or length")
    if nbytes == 0:
        return (offset // BLOCK_SIZE, 0)
    first = offset // BLOCK_SIZE
    last = (offset + nbytes - 1) // BLOCK_SIZE
    return (first, last - first + 1)
