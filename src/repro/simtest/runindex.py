"""One index over a run's trace: everything the oracles read, folded once.

:class:`RunIndex` is the one place that turns trace records into the
facts the oracles of :mod:`repro.simtest.oracles` judge.  A (server,
client) pair's facts are its lease model's (:mod:`.leasemodel`); the
index keeps possession, crash and SAN cut state, and what the namespace
held when a cache node served a hit.  It folds each kind in one place,
in emission (= time) order, once per trace length: the oracles of one
final check share one index.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary, ref

from repro.analysis.consistency import ConsistencyAuditor, ConsistencyReport
from repro.core.system import StorageTankSystem
from repro.metadata.directory import Directory, NamespaceError
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.simtest.leasemodel import TIME_SLACK, LeaseModel

#: The record kinds the index reads (messages only a server's).
_MESSAGES = frozenset({"msg.send", "msg.recv"})
_FOLDED = LeaseModel.KINDS | {"fault.inject", "meta.mutate", "netcache.hit"}

Timeline = List[Tuple[float, bool]]

_INDEXES: "WeakKeyDictionary[TraceRecorder, RunIndex]" = WeakKeyDictionary()


def _state_at(timeline: Timeline, time: float) -> bool:
    """The state of the last transition at or before ``time``."""
    state = False
    for t, value in timeline:
        if t > time + TIME_SLACK:
            break
        state = value
    return state


class RunIndex:
    """The facts the oracles query, for one run's trace.

    Public fields keep emission order; ``__init__`` gives their shapes.
    Queries compare times with :data:`TIME_SLACK`.  Holding no strong
    reference to the trace or the system, the index goes with them.
    """

    @classmethod
    def of(cls, system: StorageTankSystem) -> "RunIndex":
        """``system``'s index of its whole trace, folded anew only after
        the trace grew."""
        index = _INDEXES.get(system.trace)
        if index is None or index._folded != len(system.trace):
            index = _INDEXES[system.trace] = cls(system)
        return index

    def __init__(self, system: StorageTankSystem) -> None:
        self._system = ref(system)
        self._folded = len(system.trace)
        self._audit: Optional[Tuple[Any, ConsistencyReport]] = None
        # client -> kinds, from ``byz_<kind>:<client>`` fault labels
        self.byzantine: Dict[str, List[str]] = {}
        self._down: DefaultDict[str, Timeline] = defaultdict(list)
        self._cut: DefaultDict[str, Timeline] = defaultdict(list)
        self.lease = LeaseModel(system.config.lease.contract(),
                                system.clocks)
        self._namespace = Directory()
        self._sizes: Dict[int, int] = {}
        # (time, node, reason, record) per hit the namespace contradicts
        self.stale_hits: List[Tuple[float, str, str, TraceRecord]] = []
        # Messages are most of a trace; only the servers' are read.
        for rec in system.trace.scan(_FOLDED, 0, system.servers, _MESSAGES):
            self._fold(rec)

    # -- queries ------------------------------------------------------------
    def down_at(self, node: str, time: float) -> bool:
        """Whether ``node`` had crashed, and not restarted, by ``time``."""
        return _state_at(self._down.get(node, []), time)

    def crashed_since(self, node: str, time: float) -> bool:
        """Whether ``node`` crashed at any point at or after ``time``."""
        return any(down and t >= time - TIME_SLACK
                   for t, down in self._down.get(node, ()))

    def san_cut_at(self, node: str, time: float) -> bool:
        """Whether a SAN cut of ``node`` was live at ``time``."""
        return _state_at(self._cut.get(node, []), time)

    def audit(self) -> ConsistencyReport:
        """The consistency audit of the run so far, run once per state."""
        system = self._system()
        assert system is not None
        at = (self._folded, system.sim.now)
        if self._audit is None or self._audit[0] != at:
            self._audit = (at, ConsistencyAuditor(system).audit())
        return self._audit[1]

    # -- folding ------------------------------------------------------------
    def _fold(self, rec: TraceRecord) -> None:
        """Fold one record whose kind is in :data:`_FOLDED` (a message
        only if a server emitted it)."""
        kind, t, node, get = rec.kind, rec.time, rec.node, rec.get
        if kind in LeaseModel.KINDS:
            self.lease.fold(rec)
        elif kind == "fault.inject":
            self._fault(t, str(get("label")))
        elif kind == "meta.mutate":
            self._mutate(rec)
        else:  # netcache.hit
            reason = self._stale_reason(str(get("key_kind")),
                                        str(get("path")), get("fingerprint"))
            if reason is not None:
                self.stale_hits.append((t, node, reason, rec))

    def _fault(self, t: float, label: str) -> None:
        head, sep, rest = label.partition(":")
        if head in ("crash", "restart"):
            self._down[rest].append((t, head == "crash"))
        elif head == "san_cut":
            self._cut[rest.rpartition("-")[0]].append((t, True))
        elif label == "heal_san":
            for timeline in self._cut.values():
                timeline.append((t, False))
        elif head.startswith("byz_") and sep and rest:
            self.byzantine.setdefault(rest, []).append(head[len("byz_"):])

    def _mutate(self, rec: TraceRecord) -> None:
        op = str(rec.get("op"))
        if op in ("create", "setattr"):
            fid = int(rec.get("file_id") or 0)
            self._sizes[fid] = int(rec.get("size") or 0)
        try:
            if op == "create":
                self._namespace.create(str(rec.get("path")), fid)
            elif op == "unlink":
                self._namespace.unlink(str(rec.get("path")))
        except NamespaceError:
            pass

    def _stale_reason(self, key_kind: str, path: str,
                      fp: Any) -> Optional[str]:
        """Why a hit serving ``fp`` disagrees with the namespace, or None."""
        if key_kind == "readdir":
            expected = tuple(self._namespace.listdir(path))
            got = tuple(fp or ())
            if got != expected:
                return (f"readdir hit for {path!r} served {got!r}, "
                        f"authoritative listing is {expected!r}")
            return None
        try:
            fid = self._namespace.lookup(path)
        except NamespaceError:
            return (f"{key_kind} hit for {path!r} served "
                    f"{fp!r} but the path does not exist")
        if key_kind == "lookup":
            if int(fp) != fid:
                return (f"lookup hit for {path!r} served file id "
                        f"{fp!r}, authoritative id is {fid}")
            return None
        got_fid, got_size = fp
        size = self._sizes.get(fid, 0)
        if int(got_fid) != fid or int(got_size) != size:
            return (f"attrs hit for {path!r} served "
                    f"(fid={got_fid}, size={got_size}), authoritative is "
                    f"(fid={fid}, size={size})")
        return None
