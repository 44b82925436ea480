"""The invalidate-before-apply barrier that keeps the in-network
metadata cache tier (:mod:`repro.netcache`) coherent (DESIGN.md §15).

Every namespace mutation runs through :meth:`CacheBarrier.mutate` —
claim a barrier, invalidate every cache node, apply, release — so a hit
can never observe a value the server has already replaced.  A handler
hands it the mutation as a zero-argument ``apply`` that changes the
store, calls :meth:`~CacheBarrier.note_mutation` and returns the reply
(``repro.lint`` rule RPL011 keeps every store mutator inside one).
Without cache nodes ``mutate`` claims nothing and never waits, so the
endpoint answers the handler directly, and one body serves both
installations.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, FrozenSet, Generator, List,
                    Sequence, Set, Tuple, TypeVar)

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
                 contract: LeaseContract, trace: TraceRecorder) -> None:
        self.endpoint = endpoint
        self.authority = authority
        self.contract = contract
        self.trace = trace
        # ``_cache_mseq`` counts claimed mutation barriers;
        # ``_cache_pending`` holds barriers claimed but not yet applied —
        # replies executed while it is non-empty are stamped
        # uninstallable (watermark -1).
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
        invalidated on every cache node, ``apply`` runs and the claim is
        released on every exit.  Without cache nodes this only calls
        ``apply()``."""
        if not self._cache_nodes:
            return apply()
        self._cache_mseq += 1
        barrier = self._cache_mseq
        self._cache_pending.add(barrier)
        try:
            yield from self._invalidate_caches(
                Invalidate(barrier, paths, dirs, file_ids))
            return apply()
        finally:
            self._cache_pending.discard(barrier)

    def _invalidate_caches(self, body: Invalidate,
                           ) -> Generator[Event, Any, None]:
        """Push one invalidation round to every cache node at once and
        wait for the slowest.

        Each node's request runs as its own process (started on its
        first wait, so it costs no bootstrap event) except the last,
        which runs in the caller; the round is over when every one has
        finished.  A crash of the caller interrupts the others too."""
        *others, last = self._cache_nodes
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
