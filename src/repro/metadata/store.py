"""The server's private metadata store.

Ties the namespace, inode table and extent allocator together and
counts every operation — the paper (§1.1) characterizes the Storage
Tank server as transaction-bound ("frequent small reads and writes" on
its private store), and experiment E1 reports these counters.

Its four namespace mutators take a :class:`MutationClaim`, the
capability only the server's cache barrier mints (DESIGN.md §15): a
mutation that has not invalidated the cached copies of what it changes
cannot be applied.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.metadata.allocator import ExtentAllocator
from repro.metadata.directory import Directory, NamespaceError
from repro.metadata.inode import FileAttributes, Inode
from repro.storage.blockmap import BLOCK_SIZE, bytes_to_blocks


class ClaimError(RuntimeError):
    """A namespace mutator was called without a live claim."""


class MutationClaim:
    """The claim a namespace mutation holds on its cache barrier.

    :meth:`repro.server.barrier.CacheBarrier.mutate` mints one for each
    body it runs, after invalidating the cache nodes that may hold the
    keys it names, and revokes it when the body returns or raises; a
    claim kept past that run is dead.  Nothing else in ``src/`` makes
    one."""

    __slots__ = ("live",)

    def __init__(self) -> None:
        self.live = True


def _require(claim: MutationClaim) -> None:
    if type(claim) is not MutationClaim or not claim.live:
        raise ClaimError("namespace mutation without a live claim: apply it "
                         "in a body handed to CacheBarrier.mutate(...)")


class MetadataStore:
    """Namespace + inodes + allocation, with transaction counters."""

    def __init__(self, id_base: int = 0) -> None:
        """``id_base`` offsets generated file ids so that ids from
        different servers never collide (multi-server installations)."""
        self.namespace = Directory()
        self.allocator = ExtentAllocator()
        self._inodes: Dict[int, Inode] = {}
        self._ids = itertools.count(id_base + 1)
        self.ops = 0          # metadata transactions executed
        self.meta_reads = 0   # private-store reads
        self.meta_writes = 0  # private-store writes

    # -- files ------------------------------------------------------------
    def create_file(self, path: str, size: int = 0, now: float = 0.0, *,
                    claim: MutationClaim) -> Inode:
        """Create a file, allocating SAN blocks to back ``size`` bytes.

        An existing path raises :class:`NamespaceError` before anything
        changes: no file id drawn, no block allocated, nothing counted."""
        _require(claim)
        if self.namespace.exists(path):
            raise NamespaceError(f"path exists: {path}")
        self.ops += 1
        self.meta_writes += 1
        fid = next(self._ids)
        inode = Inode(file_id=fid)
        inode.set_size(size, now)
        blocks = bytes_to_blocks(size)
        if blocks:
            for ext in self.allocator.allocate(blocks):
                inode.extents.append(ext)
        self._inodes[fid] = inode
        self.namespace.create(path, fid)
        return inode

    def lookup(self, path: str) -> Inode:
        """Resolve a path to its inode."""
        self.ops += 1
        self.meta_reads += 1
        return self._inodes[self.namespace.lookup(path)]

    def inode(self, file_id: int) -> Inode:
        """Fetch an inode by id."""
        self.meta_reads += 1
        ino = self._inodes.get(file_id)
        if ino is None:
            raise NamespaceError(f"no inode {file_id}")
        return ino

    def exists(self, path: str) -> bool:
        """Whether the path resolves."""
        return self.namespace.exists(path)

    def ensure_size(self, file_id: int, size: int, now: float, *,
                    claim: MutationClaim) -> Inode:
        """Grow a file to ``size`` bytes, allocating blocks as needed."""
        _require(claim)
        self.ops += 1
        self.meta_writes += 1
        ino = self.inode(file_id)
        extra = ino.needs_allocation(size)
        if extra:
            for ext in self.allocator.allocate(extra):
                ino.extents.append(ext)
        if size > ino.attrs.size:
            ino.set_size(size, now)
        else:
            ino.touch(now)
        return ino

    def set_attrs(self, file_id: int, now: float, size: Optional[int] = None,
                  mode: Optional[int] = None, *,
                  claim: MutationClaim) -> Inode:
        """Setattr transaction."""
        _require(claim)
        self.ops += 1
        self.meta_writes += 1
        ino = self.inode(file_id)
        if size is None and mode is None:
            ino.touch(now)  # bare setattr = utimes-style version bump
        if size is not None:
            if size > ino.attrs.size:
                return self.ensure_size(file_id, size, now, claim=claim)
            ino.set_size(size, now)
        if mode is not None:
            ino.attrs = FileAttributes(size=ino.attrs.size, mtime=now,
                                       ctime=ino.attrs.ctime, mode=mode,
                                       version=ino.attrs.version + 1)
        return ino

    def unlink(self, path: str, *, claim: MutationClaim) -> None:
        """Remove a file and free its extents."""
        _require(claim)
        self.ops += 1
        self.meta_writes += 1
        fid = self.namespace.unlink(path)
        ino = self._inodes.pop(fid, None)
        if ino is not None and ino.extents.extents:
            self.allocator.free(ino.extents.extents)

    @property
    def file_count(self) -> int:
        """Number of live inodes."""
        return len(self._inodes)
