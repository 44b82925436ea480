"""Structured event tracing.

Simulation components emit :class:`TraceRecord`-s (message sends, lease
phase transitions, fences, lock steals...).  The trace is the ground
truth consumed by the offline consistency audit and by the experiment
harness, so records are plain data and cheap to filter.

Every kind the simulator emits declares its fields once, in
:data:`TRACE_SCHEMAS`; emit sites pass the values by position in the
declared order::

    trace.emit(now, "msg.send", src, msg_kind, dst, msg_id, seq)

Cost model (the recorder sits on every message/IO hot path):

- ``counting=False, enabled=False`` makes the recorder a true no-op;
  the precomputed ``_noop`` flag lets hot callsites skip even the
  argument packing of :meth:`TraceRecorder.emit`;
- a stored record builds no object: its time goes into an
  ``array("d")``, its shape (kind plus field names) into an id column,
  its node into a list and its values onto one flat value list.  The
  cyclic GC sees the recorder's few containers, never one object per
  record, and a ``msg.send`` record costs ~100 bytes instead of the
  ~300 a kwargs dict and a boxed time cost;
- :class:`TraceRecord` views are built only when read, and only for
  the records a read asks for: :meth:`~TraceRecorder.scan` walks the
  shape-id and node columns and builds views for the kinds it is given
  (for some of them, only those the nodes it names emitted), and
  :meth:`~TraceRecorder.select` keeps one such scan per kind, extended
  from where its last read stopped.  Every read of one record returns
  the same view object.  A
  view holds its shape and its offset into the value list, so ``get``
  answers by index and ``detail`` builds its dict only when read.  A
  recorder with subscribers builds each record's view as it is emitted;
- :meth:`~TraceRecorder.digest` (the fuzzer's trace hash) feeds the
  columns to sha256 as they are: the shape table, the raw ``times`` and
  shape-id arrays, and the ``repr`` of the nodes and values, a field
  such as ``msg_id`` left out on request.  It formats no text line;
  :meth:`~TraceRecorder.canonical_lines` is the human- and diff-readable
  rendering, one compiled template per shape, without views.

Kinds missing from the table (ad-hoc kinds in tests) still take keyword
fields, ``emit(time, kind, node, **detail)``; that path resolves the
field set on every call.  Counters always update while ``counting`` is
on, even when storage is disabled — oracle and experiment code relies on
exact counts.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from itertools import accumulate, chain, compress, islice
from operator import getitem
from typing import (Any, Callable, Collection, Dict, FrozenSet, Iterable,
                    Iterator, List, Optional, Sequence, Tuple, cast)

#: Field names of every kind the simulator emits, in emit order.  A key
#: is the kind itself; a kind whose sites record different field sets
#: declares each set under ``kind#variant`` (the ``#variant`` suffix
#: picks the set and is not part of the stored kind).
TRACE_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    # control network (net/control.py)
    "msg.send": ("msg_kind", "dst", "msg_id", "seq"),
    "msg.recv": ("msg_kind", "src", "msg_id", "seq"),
    "msg.blocked": ("dst", "msg_kind"),
    "msg.dropped": ("dst", "msg_kind"),
    # SAN fabric (net/san.py)
    "san.read": ("device", "n_blocks"),
    "san.write": ("device", "n_blocks"),
    "san.unreachable": ("device",),
    # client data path (client/datapath.py) and the dlock baseline
    # (protocols/dlock_fs.py)
    "app.read": ("file_id", "block", "tag", "device", "lba"),
    "app.read#dlock": ("block", "tag"),
    "app.write.ack": ("file_id", "tag", "blocks", "phys"),
    "app.write.ack#dlock": ("tag", "blocks"),
    "app.error": ("file_id", "tag", "reason"),
    "app.rejected": ("phase",),
    "cache.flushed": ("file_id", "tag", "block", "device", "lba"),
    # client node, agent and lock client
    "client.epoch_change": ("server", "epoch"),
    "client.lease_lost": ("server", "dirty_dropped", "in_flight"),
    "client.map_update": ("epoch", "migrated"),
    "client.quiesce": (),
    "client.reasserted": ("file_id", "mode"),
    "client.resume": (),
    # lease protocol (lease/)
    "lease.expire": ("server",),
    "lease.keepalive": ("server",),
    "lease.nack": ("server",),
    "lease.phase": ("server", "phase"),
    "lease.reconnect": ("server",),
    "lease.renewed": ("server", "start_local"),
    "lease.server_nack": ("client", "msg_kind"),
    "lease.steal": ("client",),
    "lease.suspect": ("client", "wait_local"),
    # server (server/)
    "meta.mutate#create": ("op", "path", "file_id", "size"),
    "meta.mutate#setattr": ("op", "file_id", "size"),
    "meta.mutate#unlink": ("op", "path", "file_id"),
    "server.crash": (),
    "server.demand_escalate": ("client", "obj", "rounds"),
    "server.fence": ("client",),
    "server.reassert": ("client", "obj", "mode"),
    "server.reject": ("client", "obj", "what"),
    "server.restart": ("epoch",),
    "server.steal": ("client", "n_locks"),
    "server.unfence": ("client",),
    # baseline authorities (protocols/)
    "authority.fence_steal": ("client",),
    "authority.honor": ("client",),
    "authority.immediate_steal": ("client",),
    "frangipani.expire": ("client",),
    "nfs.poll": ("file_id",),
    "vlease.expire": ("client", "obj"),
    # in-network cache tier (netcache/)
    "netcache.crash": (),
    "netcache.drop": ("key_kind", "server", "path", "reason"),
    "netcache.flush": ("server", "reason", "dropped"),
    "netcache.hit": ("key_kind", "server", "path", "fingerprint"),
    "netcache.miss": ("msg_kind", "server", "client"),
    "netcache.restart": (),
    # cluster control plane (cluster/)
    "cluster.adopt": ("holdings",),
    "cluster.failback": ("server", "slots", "clean", "epoch"),
    "cluster.map_update": ("epoch", "owned"),
    "cluster.move_slots": ("target", "slots", "epoch"),
    "cluster.release": ("slots", "holdings"),
    "cluster.server_alive": ("server",),
    "cluster.server_dead": ("server",),
    "cluster.takeover": ("dead", "target", "slots", "epoch"),
    "cluster.takeover_begin": ("origin", "slots", "wait_local", "grace"),
    # fault injection (fault/)
    "byz.possess": ("behavior",),
    "fault.inject": ("label",),
}

#: Kinds with a declared field set (keyword fields are refused for them).
_DECLARED_KINDS = frozenset(key.partition("#")[0] for key in TRACE_SCHEMAS)


class _Shape:
    """A kind and its field names: what every record of one id shares."""

    __slots__ = ("kind", "fields", "arity", "index")

    def __init__(self, kind: str, fields: Tuple[str, ...]) -> None:
        self.kind = kind
        self.fields = fields
        self.arity = len(fields)
        self.index = {name: i for i, name in enumerate(fields)}

    def template(self, omit: FrozenSet[str]) -> str:
        """The canonical line as a ``str.format`` template over
        ``(time, node, *values)``: sorted field names, ``omit`` left out."""
        def esc(text: str) -> str:
            return text.replace("{", "{{").replace("}", "}}")
        detail = " ".join(f"{esc(name)}={{{self.index[name] + 2}!r}}"
                          for name in sorted(self.fields) if name not in omit)
        return f"{{0:.9f}} {esc(self.kind)} {{1}} {detail}"


class TraceRecord:
    """One traced occurrence (read-only: every reader shares it).

    ``kind`` is a dotted category such as ``"msg.send"``, ``"lease.phase"``,
    ``"lock.steal"``, ``"disk.write"``; ``node`` the emitting component;
    ``detail`` keyed data.  A record read from a recorder is a view onto
    its columns: ``get`` reads one value, ``detail`` builds a fresh dict.
    """

    __slots__ = ("time", "kind", "node", "_shape", "_values", "_at")

    def __init__(self, time: float, kind: str, node: str,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        detail = {} if detail is None else detail
        self.time = time
        self.kind = kind
        self.node = node
        self._shape = _Shape(kind, tuple(detail))
        self._values: Sequence[Any] = tuple(detail.values())
        self._at = 0

    @property
    def detail(self) -> Dict[str, Any]:
        """Field name -> value (a new dict on every read)."""
        shape = self._shape
        return dict(zip(shape.fields,
                        self._values[self._at:self._at + shape.arity]))

    def get(self, key: str, default: Any = None) -> Any:
        """One field's value, ``default`` when the record has no such field."""
        i = self._shape.index.get(key)
        return default if i is None else self._values[self._at + i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time, self.kind, self.node, self.detail) == (
            other.time, other.kind, other.node, other.detail)

    def __repr__(self) -> str:
        return (f"TraceRecord(time={self.time!r}, kind={self.kind!r}, "
                f"node={self.node!r}, detail={self.detail!r})")


def _view(values: List[Any], time: float, shape: _Shape, node: str,
          at: int) -> TraceRecord:
    """A record view over the recorder's columns."""
    rec = TraceRecord.__new__(TraceRecord)
    rec.time = time
    rec.kind = shape.kind
    rec.node = node
    rec._shape = shape
    rec._values = values
    rec._at = at
    return rec


def _little_endian(column: "array[Any]") -> "array[Any]":
    """``column`` with its items in little-endian byte order."""
    if sys.byteorder == "little":
        return column
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped


def _hash_repr(digest: "hashlib._Hash", items: Iterable[Any]) -> None:
    """Feed ``repr`` of ``items`` to ``digest``, 4096 items per list."""
    it = iter(items)
    while True:
        chunk = list(islice(it, 4096))
        if not chunk:
            return
        digest.update(repr(chunk).encode("utf-8"))


class TraceRecorder:
    """Append-only trace with cheap filtered views and counters."""

    def __init__(self, enabled: bool = True, counting: bool = True) -> None:
        self.enabled = enabled
        self.counting = counting
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        self._reset()
        # True when emit() can return without doing any work at all;
        # hot callsites read this to skip argument packing entirely.
        self._noop = not enabled and not counting

    def _reset(self) -> None:
        # Shapes in first-emission order; _ids maps an emit key to a
        # list indexed by arity (the declared arity holds the shape id),
        # _by_fields every shape by (kind, field names).
        self._shapes: List[_Shape] = []
        self._ids: Dict[str, List[Optional[int]]] = {}
        self._by_fields: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._tally: List[int] = []
        # One column per record attribute; emit() appends and builds
        # nothing else.
        self._times = array("d")
        self._sids = array("I")
        self._nodes: List[str] = []
        self._values: List[Any] = []
        # Read side, all built lazily: each record's first value index
        # (for the first len(_starts) records), each record's view or
        # None if no read asked for it yet (the first _complete are all
        # built), and per kind the views select() has scanned, up to
        # which record.
        self._starts = array("q")
        self._views: List[Optional[TraceRecord]] = []
        self._complete = 0
        self._selected: Dict[str, Tuple[int, List[TraceRecord]]] = {}

    def emit(self, time: float, kind: str, node: str, *values: Any,
             **detail: Any) -> None:
        """Record one occurrence (counters update even when storage is off).

        ``values`` are a declared kind's fields in :data:`TRACE_SCHEMAS`
        order; ``kind`` may carry the ``#variant`` of a kind declared
        more than once.  A kind missing from the table takes keyword
        fields instead.  Raises :class:`TypeError` on a wrong arity,
        keyword fields for a declared kind, or positional values for an
        undeclared one."""
        if self._noop:
            return
        if detail:
            sid = self._adhoc_id(kind, values, detail)
            values = tuple(detail.values())
        else:
            try:
                found = self._ids[kind][len(values)]
            except (KeyError, IndexError):
                found = None
            sid = self._resolve(kind, len(values)) if found is None else found
        if self.counting:
            self._tally[sid] += 1
        if not self.enabled:
            return
        self._times.append(time)
        self._sids.append(sid)
        self._nodes.append(node)
        self._values.extend(values)
        if self._subscribers:
            rec = self._synced()[-1]
            for sub in self._subscribers:
                sub(rec)

    def _shape_id(self, kind: str, fields: Tuple[str, ...]) -> int:
        sid = self._by_fields.get((kind, fields))
        if sid is None:
            sid = self._by_fields[(kind, fields)] = len(self._shapes)
            self._shapes.append(_Shape(kind, fields))
            self._tally.append(0)
        return sid

    def _resolve(self, key: str, arity: int) -> int:
        """Shape id of a positional emit on first use of ``key``."""
        fields = TRACE_SCHEMAS.get(key)
        kind = key.partition("#")[0]
        if fields is None:
            if kind in _DECLARED_KINDS:
                raise TypeError(f"trace kind {key!r} is declared per variant "
                                f"in TRACE_SCHEMAS; emit a 'kind#variant' key")
            if arity:
                raise TypeError(f"trace kind {key!r} is not declared in "
                                f"TRACE_SCHEMAS; pass its fields by keyword")
            fields = ()
        if len(fields) != arity:
            raise TypeError(f"trace kind {key!r} takes {len(fields)} field "
                            f"values {fields}, got {arity}")
        sid = self._shape_id(kind, fields)
        ids: List[Optional[int]] = [None] * (arity + 1)
        ids[arity] = sid
        self._ids[key] = ids
        return sid

    def _adhoc_id(self, kind: str, values: Tuple[Any, ...],
                  detail: Dict[str, Any]) -> int:
        """Shape id of a keyword emit of an undeclared kind."""
        if values or kind in _DECLARED_KINDS or kind in TRACE_SCHEMAS:
            raise TypeError(f"trace kind {kind!r}: keyword fields are only "
                            f"for undeclared kinds; declared ones take "
                            f"positional values")
        return self._shape_id(kind, tuple(detail))

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Invoke ``fn`` on every stored record as it is emitted."""
        self._subscribers.append(fn)

    def _offsets(self) -> "array[int]":
        """Each stored record's first value index, extended to the last."""
        starts = self._starts
        have, stop = len(starts), len(self._times)
        if have < stop:
            arity = [s.arity for s in self._shapes]
            sids = self._sids
            first = (starts[-1] + arity[sids[have - 1]]) if have else 0
            starts.extend(accumulate(map(arity.__getitem__,
                                         sids[have:stop - 1]), initial=first))
        return starts

    def _views_at(self, positions: Iterable[int]) -> List[TraceRecord]:
        """The views of the records at ``positions``, built where missing."""
        views = self._views
        if len(views) < len(self._times):
            views.extend([None] * (len(self._times) - len(views)))
        starts = self._offsets()
        times, sids, nodes = self._times, self._sids, self._nodes
        shapes, values = self._shapes, self._values
        out = []
        for i in positions:
            rec = views[i]
            if rec is None:
                rec = views[i] = _view(values, times[i], shapes[sids[i]],
                                       nodes[i], starts[i])
            out.append(rec)
        return out

    def _synced(self) -> List[TraceRecord]:
        """Every stored record's view, in emission order."""
        stop = len(self._times)
        if self._complete < stop:
            self._views_at(range(self._complete, stop))
            self._complete = stop
        return cast(List[TraceRecord], self._views)  # all built

    def scan(self, kinds: Collection[str], start: int = 0,
             nodes: Collection[str] = (),
             node_kinds: Collection[str] = ()) -> List[TraceRecord]:
        """Views of the stored records from position ``start`` on whose
        kind is in ``kinds``, in emission order; a record of a kind in
        ``node_kinds`` only if a node in ``nodes`` emitted it.  Only
        those records get a view: the scan walks the shape-id and node
        columns."""
        stop = len(self._times)
        if start >= stop:
            return []
        sids = self._sids[start:stop]
        if node_kinds:
            # Per shape, indexed by "a named node emitted it".
            pick = [(s.kind in kinds and s.kind not in node_kinds,
                     s.kind in kinds) for s in self._shapes]
            flags: Iterable[bool] = map(
                getitem, map(pick.__getitem__, sids),
                map(nodes.__contains__, self._nodes[start:stop]))
        else:
            flags = map([s.kind in kinds for s in self._shapes].__getitem__,
                        sids)
        return self._views_at(compress(range(start, stop), flags))

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._synced())

    @property
    def records(self) -> List[TraceRecord]:
        """All stored records in emission order."""
        return list(self._synced())

    def canonical_lines(self, omit: FrozenSet[str] = frozenset()) -> List[str]:
        """Every stored record as ``"{time:.9f} {kind} {node} k=v ..."``:
        fields sorted by name, values ``repr``-ed, ``omit`` left out."""
        formats = [s.template(omit).format for s in self._shapes]
        arities = [s.arity for s in self._shapes]
        values = self._values
        out = []
        at = 0
        for time, sid, node in zip(self._times, self._sids, self._nodes):
            n = arities[sid]
            out.append(formats[sid](time, node, *values[at:at + n]))
            at += n
        return out

    def digest(self, omit: FrozenSet[str] = frozenset()) -> str:
        """sha256 (hex) over the stored columns, fields named in ``omit``
        left out: the record count, the shape table, the raw times and
        shape ids, and the ``repr`` of the nodes and the values."""
        shapes = self._shapes
        kept = [tuple(name not in omit for name in s.fields) for s in shapes]
        digest = hashlib.sha256(repr((len(self._times), [
            (s.kind, tuple(compress(s.fields, keep)))
            for s, keep in zip(shapes, kept)])).encode("utf-8"))
        digest.update(_little_endian(self._times))
        digest.update(_little_endian(self._sids))
        _hash_repr(digest, self._nodes)
        values: Iterable[Any] = self._values
        if not all(map(all, kept)):
            values = compress(values, chain.from_iterable(
                map(kept.__getitem__, self._sids)))
        _hash_repr(digest, values)
        return digest.hexdigest()

    def count(self, kind: str) -> int:
        """Exact count of a kind (counted even when storage is off)."""
        return self.kinds().get(kind, 0)

    def count_prefix(self, prefix: str) -> int:
        """Sum of counts over all kinds with the given dotted prefix."""
        return sum(c for k, c in self.kinds().items() if k.startswith(prefix))

    def select(self, kind: Optional[str] = None, node: Optional[str] = None,
               prefix: Optional[str] = None) -> List[TraceRecord]:
        """Stored records matching the given filters."""
        pool = self._synced() if kind is None else self._of_kind(kind)
        out = []
        for r in pool:
            if prefix is not None and not r.kind.startswith(prefix):
                continue
            if node is not None and r.node != node:
                continue
            out.append(r)
        return out

    def _of_kind(self, kind: str) -> List[TraceRecord]:
        """The views of every stored ``kind`` record, scanned onward from
        where the last call for ``kind`` stopped."""
        scanned, views = self._selected.get(kind, (0, []))
        views.extend(self.scan((kind,), scanned))
        self._selected[kind] = (len(self._times), views)
        return views

    def kinds(self) -> Dict[str, int]:
        """Mapping of every seen kind to its count."""
        out: Dict[str, int] = {}
        for shape, n in zip(self._shapes, self._tally):
            if n:
                out[shape.kind] = out.get(shape.kind, 0) + n
        return out

    def clear(self) -> None:
        """Drop stored records, their views and counters.
        Views read before the clear keep their values."""
        self._reset()
