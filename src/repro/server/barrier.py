"""The invalidate-before-apply barrier that keeps the in-network
metadata cache tier (:mod:`repro.netcache`) coherent (DESIGN.md §15).

Every namespace mutation runs through :meth:`CacheBarrier.mutate` —
claim a barrier, invalidate the cache nodes that may hold a key it
names, apply, release — so a hit can never observe a value the server
has already replaced.  Which nodes may hold a key is the barrier's
holder table, the paper's holder-directed demand (§2) applied to the
cache tier: every ACK that a cache node could install records its node
under the keys ``CACHE_INVALIDATE`` names (:meth:`~CacheBarrier.hold`),
and a mutation drops them once it has applied.  The table is volatile;
wherever it cannot be trusted (:meth:`RecoveryManager.holders_untrusted
<repro.server.recovery.RecoveryManager.holders_untrusted>`) every
enrolled node is invalidated.

A handler hands the barrier the mutation as a zero-argument ``apply``
that changes the store, calls :meth:`~CacheBarrier.note_mutation` and
returns the reply (``repro.lint`` rule RPL011 keeps every store mutator
inside one).  A mutation no node may hold claims nothing and never
waits, so the endpoint answers the handler directly; without cache
nodes that is every mutation, and one body serves both installations.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Generator,
                    List, Optional, Sequence, Set, Tuple, TypeVar)

from repro.lease.contract import LeaseContract
from repro.net.control import Endpoint
from repro.net.message import DeliveryError, Invalidate, MsgKind, NackError
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.protocols.base import SafetyAuthority

_R = TypeVar("_R")

#: The trace key of each namespace mutation's record: the three ops
#: record different fields (``sim/trace.py``, ``TRACE_SCHEMAS``).
_MUTATE_KEYS = {"create": "meta.mutate#create",
                "setattr": "meta.mutate#setattr",
                "unlink": "meta.mutate#unlink"}


def ancestor_dirs(path: str) -> List[str]:
    """Every directory whose listing names ``path`` or a prefix of it,
    root included — the namespace has implicit directories, so a
    create/unlink can change any ancestor's readdir answer."""
    dirs: List[str] = []
    p = path.rsplit("/", 1)[0]
    while True:
        dirs.append(p or "/")
        if not p or p == "/":
            break
        p = p.rsplit("/", 1)[0]
    return dirs


class CacheBarrier:
    """Cache-node enrolment, mutation barriers and reply watermarks of
    one server."""

    def __init__(self, endpoint: Endpoint, authority: "SafetyAuthority",
                 contract: LeaseContract, trace: TraceRecorder,
                 untrusted: Callable[[], bool]) -> None:
        """``untrusted()`` says whether the holder table may be
        incomplete, so that every node must be invalidated."""
        self.endpoint = endpoint
        self.authority = authority
        self.contract = contract
        self.trace = trace
        self._untrusted = untrusted
        # ``_cache_mseq`` counts claimed mutation barriers;
        # ``_cache_pending`` holds barriers claimed but not yet applied —
        # replies executed while it is non-empty are stamped
        # uninstallable (watermark -1).
        self._cache_nodes: Tuple[str, ...] = ()
        self.enrolled: FrozenSet[str] = frozenset()
        self._cache_mseq = 0
        self._cache_pending: Set[int] = set()
        # The holder table: per key kind of ``Invalidate`` (paths, dirs,
        # file ids), the bit mask of the enrolled nodes that may hold an
        # entry under the key (bit i: ``_cache_nodes[i]``).
        self._bits: Dict[str, int] = {}
        self._path_holders: Dict[str, int] = {}
        self._dir_holders: Dict[str, int] = {}
        self._fid_holders: Dict[int, int] = {}

    def attach_cache_nodes(self, names: Tuple[str, ...]) -> None:
        """Enroll the netcache tier: replies to these nodes carry a
        mutation watermark and metadata mutations run the
        invalidate-before-apply barrier against them."""
        self._cache_nodes = tuple(names)
        self.enrolled = frozenset(names)
        self._bits = {name: 1 << i for i, name in enumerate(names)}

    def hold(self, src: str, path: Optional[str] = None,
             dirname: Optional[str] = None, file_id: Optional[int] = None,
             ) -> None:
        """Record ``src`` as a holder of the keys of the ACK a cacheable
        read handler is about to return: ``path`` (lookup and
        getattr-by-path), ``dirname`` (readdir) and ``file_id`` (lookup and
        getattr).  Recorded under the condition that makes the reply
        installable — an enrolled source and no pending barrier, the
        instant its :meth:`watermark` is taken — so every node that can
        install an entry is a holder of its key until a mutation naming
        the key has invalidated it and applied.  A replayed reply is
        not re-recorded: it keeps the stamp it was sealed with."""
        bit = self._bits.get(src)
        if bit is None or self._cache_pending:
            return
        if path is not None:
            held = self._path_holders
            held[path] = held.get(path, 0) | bit
        if dirname is not None:
            held = self._dir_holders
            held[dirname] = held.get(dirname, 0) | bit
        if file_id is not None:
            fids = self._fid_holders
            fids[file_id] = fids.get(file_id, 0) | bit

    def forget_holders(self) -> None:
        """Drop the holder table (a server crash: it is volatile)."""
        self._path_holders.clear()
        self._dir_holders.clear()
        self._fid_holders.clear()

    def _targets(self, paths: Sequence[str], dirs: Sequence[str],
                 file_ids: Sequence[int]) -> List[str]:
        """The enrolled nodes a mutation naming these keys invalidates:
        every node while the holder table is untrusted, else the
        holders of any of the keys."""
        nodes = self._cache_nodes
        if not nodes:
            return []
        if self._untrusted():
            return list(nodes)
        mask = 0
        held = self._path_holders
        for path in paths:
            mask |= held.get(path, 0)
        held = self._dir_holders
        for dirname in dirs:
            mask |= held.get(dirname, 0)
        fids = self._fid_holders
        for fid in file_ids:
            mask |= fids.get(fid, 0)
        return [name for i, name in enumerate(nodes) if mask >> i & 1]

    def _release(self, paths: Sequence[str], dirs: Sequence[str],
                 file_ids: Sequence[int]) -> None:
        """Drop the holders of a mutation's keys once it has applied.

        Every holder left is one the mutation invalidated: none was
        recorded while its barrier was pending.  Never earlier: a
        mutation claimed meanwhile on the same key must still find, and
        wait for, the node this one is invalidating."""
        for path in paths:
            self._path_holders.pop(path, None)
        for dirname in dirs:
            self._dir_holders.pop(dirname, None)
        for fid in file_ids:
            self._fid_holders.pop(fid, None)

    def watermark(self) -> int:
        """The watermark an ACK to an :attr:`enrolled` node carries,
        taken when the decision is produced (for the cacheable read
        kinds, their execution instant); ``-1`` while a mutation barrier
        is pending marks the reply uninstallable: the value may predate
        a mutation whose invalidation the cache has already processed."""
        return -1 if self._cache_pending else self._cache_mseq

    def mutate(self, apply: Callable[[], _R], *,
               paths: Sequence[str] = (), dirs: Sequence[str] = (),
               file_ids: Sequence[int] = (),
               ) -> Generator[Event, Any, _R]:
        """Run ``apply()`` behind the next mutation barrier and return
        what it returns.

        The barrier is claimed (replies stamp -1 while it is pending),
        the ``paths`` / ``dirs`` / ``file_ids`` the mutation touches are
        invalidated on the nodes that may hold them (:meth:`_targets`),
        ``apply`` runs, their holders are dropped and the claim is
        released on every exit.  When no node may hold them this only
        calls ``apply()``."""
        targets = self._targets(paths, dirs, file_ids)
        if not targets:
            return apply()
        self._cache_mseq += 1
        barrier = self._cache_mseq
        self._cache_pending.add(barrier)
        try:
            yield from self._invalidate_caches(
                targets, Invalidate(barrier, paths, dirs, file_ids))
            reply = apply()
            self._release(paths, dirs, file_ids)
            return reply
        finally:
            self._cache_pending.discard(barrier)

    def _invalidate_caches(self, targets: List[str], body: Invalidate,
                           ) -> Generator[Event, Any, None]:
        """Push one invalidation round to the ``targets`` at once and
        wait for the slowest.

        Each node's request runs as its own process (started on its
        first wait, so it costs no bootstrap event) except the last,
        which runs in the caller; the round is over when every one has
        finished.  A crash of the caller interrupts the others too."""
        *others, last = targets
        sim = self.endpoint.sim
        procs: List[Process] = []
        for cname in others:
            gen = self._invalidate_one(cname, body)
            procs.append(sim.process(gen, target=next(gen)))
        try:
            yield from self._invalidate_one(last, body)
            for proc in procs:
                if proc.is_alive:
                    yield proc
        finally:
            for proc in procs:
                if proc.is_alive:
                    proc.interrupt("crash")

    def _invalidate_one(self, cname: str, body: Invalidate,
                        ) -> Generator[Event, Any, None]:
        """Invalidate one cache node and wait until it is safe.

        A cache that ACKs has dropped the named entries and raised its
        barrier floor.  A cache that cannot be reached is handled by the
        lease machinery: the delivery failure marked it suspect, so we
        wait for the authority's resolution (the τ(1+ε) suspect timer of
        Theorem 3.1) — after which the cache's own clock has expired the
        covering lease and its entries are unusable."""
        try:
            yield from self.endpoint.request(cname, MsgKind.CACHE_INVALIDATE,
                                             body)
        except NackError:
            pass  # cache refused: it holds nothing it will serve
        except DeliveryError:
            res = self.authority.resolution(cname)
            if res is not None:
                yield res
            else:
                yield self.endpoint.local_timeout(
                    self.contract.server_wait_local())

    def note_mutation(self, op: str, *fields: Any) -> None:
        """Record a namespace mutation at apply time: the authoritative
        timeline the stale-entry oracle replays.  ``fields`` follow
        ``op``'s ``meta.mutate#<op>`` entry in the trace schema table.
        Without cache nodes there is no cache to be stale, and nothing
        is recorded."""
        trace = self.trace
        if self._cache_nodes and not trace._noop:
            trace.emit(self.endpoint.sim.now, _MUTATE_KEYS[op],
                       self.endpoint.name, op, *fields)
