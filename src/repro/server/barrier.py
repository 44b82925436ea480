"""The invalidate-before-apply barrier that keeps the in-network
metadata cache tier (:mod:`repro.netcache`) coherent (DESIGN.md §15).

Every namespace mutation is *bracketed* — claim a barrier, invalidate
every cache node, apply, release — so a hit can never observe a value
the server has already replaced.  In a mutation body::

    barrier = self.barrier._claim_barrier()
    try:
        if barrier:
            yield from self.barrier._invalidate_caches(barrier, {...})
        ... apply ...
        if barrier:
            self.barrier.note_mutation(...)
    finally:
        self.barrier._cache_pending.discard(barrier)

(the names ``repro.lint`` rules RPL011 and RPL012 check on every path).
Without cache nodes the bracket is a no-op — the claim is 0 and nothing
waits, so the endpoint answers the handler directly — and one body
serves both installations.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, Generator, List, Set,
                    Tuple)

from repro.lease.contract import LeaseContract
from repro.net.control import Endpoint
from repro.net.message import DeliveryError, MsgKind, NackError
from repro.sim.events import Event
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.protocols.base import SafetyAuthority


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
                 contract: LeaseContract, trace: TraceRecorder) -> None:
        self.endpoint = endpoint
        self.authority = authority
        self.contract = contract
        self.trace = trace
        # ``_cache_mseq`` counts claimed mutation barriers;
        # ``_cache_pending`` holds barriers claimed but not yet applied —
        # replies executed while it is non-empty are stamped
        # uninstallable (__mseq__ = -1).
        self._cache_nodes: Tuple[str, ...] = ()
        self.enrolled: FrozenSet[str] = frozenset()
        self._cache_mseq = 0
        self._cache_pending: Set[int] = set()

    def attach_cache_nodes(self, names: Tuple[str, ...]) -> None:
        """Enroll the netcache tier: replies to these nodes carry a
        mutation watermark and metadata mutations run the
        invalidate-before-apply barrier against them."""
        self._cache_nodes = tuple(names)
        self.enrolled = frozenset(names)

    def watermark(self) -> int:
        """The ``__mseq__`` an ACK to an :attr:`enrolled` node carries,
        taken when the decision is produced (for the cacheable read
        kinds, their execution instant); ``-1`` while a mutation barrier
        is pending marks the reply uninstallable: the value may predate
        a mutation whose invalidation the cache has already processed."""
        return -1 if self._cache_pending else self._cache_mseq

    def _claim_barrier(self) -> int:
        """Claim the next mutation barrier (reads stamp -1 until it is
        discarded from ``_cache_pending``); 0, claiming nothing, without
        cache nodes."""
        if not self._cache_nodes:
            return 0
        self._cache_mseq += 1
        barrier = self._cache_mseq
        self._cache_pending.add(barrier)
        return barrier

    def _invalidate_caches(self, barrier: int, payload: Dict[str, Any],
                           ) -> Generator[Event, Any, None]:
        """Push one invalidation round to every cache node and wait.

        A cache that ACKs has dropped the named entries and raised its
        barrier floor.  A cache that cannot be reached is handled by the
        lease machinery: the delivery failure marked it suspect, so we
        wait for the authority's resolution (the τ(1+ε) suspect timer of
        Theorem 3.1) — after which the cache's own clock has expired the
        covering lease and its entries are unusable.  Only then may the
        mutation apply."""
        body = dict(payload)
        body["barrier"] = barrier
        for cname in self._cache_nodes:
            try:
                yield from self.endpoint.request(
                    cname, MsgKind.CACHE_INVALIDATE, dict(body))
            except NackError:
                pass  # cache refused: it holds nothing it will serve
            except DeliveryError:
                res = self.authority.resolution(cname)
                if res is not None:
                    yield res
                else:
                    yield self.endpoint.local_timeout(
                        self.contract.server_wait_local())

    def note_mutation(self, op: str, **fields: Any) -> None:
        """Record a namespace mutation at apply time (under a claimed
        barrier only): the authoritative timeline the stale-entry
        oracle replays."""
        trace = self.trace
        if not trace._noop:
            trace.emit(self.endpoint.sim.now, "meta.mutate",
                       self.endpoint.name, op=op, **fields)
