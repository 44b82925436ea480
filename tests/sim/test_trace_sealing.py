"""Sealed trace chunks read back as the unsealed columns they replaced.

The recorder pickles its value and node columns every ``_CHUNK`` records.
These tests shrink the chunk to a few records and hold every read of a
sealed recorder against the same reads of one that never fills a chunk.
"""

import enum
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.trace as trace_module
from repro.sim import TraceRecorder

#: One list object that several records carry.
SHARED = [1, ("x", -0.0), [None]]

KINDS = {
    "msg.send": 4,
    "app.write.ack": 4,
    "meta.mutate#create": 4,
    "lease.renewed": 2,
    "fault.inject": 1,
    "client.quiesce": 0,
}
NODES = ("n0", "n1", "n2", "server")
OMITS = (frozenset(), frozenset({"msg_id"}), frozenset({"tag", "blocks"}))

atoms = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.floats(), st.sampled_from([-0.0, float("nan"), float("inf")]),
    st.text(max_size=4))
plain = st.recursive(
    atoms, lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)
values = st.one_of(plain, st.just(SHARED))

emits = st.sampled_from(sorted(KINDS)).flatmap(lambda kind: st.tuples(
    st.just("emit"), st.floats(0, 1e6), st.just(kind),
    st.sampled_from(NODES),
    st.lists(values, min_size=KINDS[kind], max_size=KINDS[kind]).map(tuple)))
STORED = sorted({k.partition("#")[0] for k in KINDS})
scans = st.tuples(
    st.just("scan"), st.sets(st.sampled_from(STORED), min_size=1),
    st.integers(0, 60), st.sets(st.sampled_from(NODES)),
    st.sets(st.sampled_from(STORED)))
reads = st.one_of(
    st.tuples(st.just("select"), st.sampled_from([None, "msg.send",
                                                  "meta.mutate", "x"]),
              st.sampled_from((None,) + NODES),
              st.sampled_from([None, "", "msg", "lease"])),
    scans, scans,
    st.tuples(st.just("records")),
    st.tuples(st.just("get"), st.integers(0, 60),
              st.sampled_from(["msg_id", "tag", "blocks", "label", "path",
                               "start_local", "nope"])),
    st.tuples(st.just("lines"), st.sampled_from(OMITS)),
    st.tuples(st.just("digest"), st.sampled_from(OMITS)))


def _read(t, op):
    """(what to compare, the views the read returned)."""
    what = op[0]
    if what == "select":
        views = t.select(kind=op[1], node=op[2], prefix=op[3])
    elif what == "scan":
        views = t.scan(op[1], op[2] % (len(t) + 1), nodes=op[3],
                       node_kinds=op[4])
    elif what == "records":
        views = t.records
    elif what == "get":
        records = t.records
        if not records:
            return None, []
        rec = records[op[1] % len(records)]
        return repr((rec.get(op[2], "absent"), rec.detail, rec)), [rec]
    elif what == "lines":
        return t.canonical_lines(op[1]), []
    else:
        return t.digest(op[1]), []
    return [repr(v) for v in views], views


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.lists(st.one_of(emits, emits, reads),
                                   min_size=8, max_size=60))
def test_a_sealed_recorder_reads_as_an_unsealed_one(chunk, ops):
    with mock.patch.object(trace_module, "_CHUNK", chunk):
        sealed = TraceRecorder()
    plain_rec = TraceRecorder()
    seen = []
    for op in ops:
        with mock.patch.object(trace_module, "_CHUNK", chunk):
            if op[0] == "emit":
                sealed.emit(*op[1:4], *op[4])
            else:
                got, views = _read(sealed, op)
                seen.extend(views)
        if op[0] == "emit":
            plain_rec.emit(*op[1:4], *op[4])
        else:
            assert got == _read(plain_rec, op)[0], op
        if op[0] == "scan":
            kinds, start, nodes, node_kinds = op[1:]
            records = plain_rec.records
            start %= len(records) + 1
            assert got == [repr(r) for r in records[start:]
                           if r.kind in kinds and (r.kind not in node_kinds
                                                   or r.node in nodes)]
    with mock.patch.object(trace_module, "_CHUNK", chunk):
        assert sealed.digest() == plain_rec.digest()
        assert sealed.canonical_lines() == plain_rec.canonical_lines()
        final = {id(r) for r in sealed.records}
    assert all(id(v) in final for v in seen)
    assert not plain_rec._chunks


class Mode(enum.Enum):
    EXCLUSIVE = "x"


@pytest.mark.parametrize("odd", [{3, 1, 2}, frozenset({"b", "a"}),
                                 [1, (Mode.EXCLUSIVE,)], Mode.EXCLUSIVE],
                         ids=["set", "frozenset", "nested-enum", "enum"])
def test_a_chunk_with_other_objects_stays_as_its_lists(odd):
    with mock.patch.object(trace_module, "_CHUNK", 2):
        t = TraceRecorder()
        for i, label in enumerate(["a", odd, "c", "d", "e"]):
            t.emit(float(i), "fault.inject", "n0", label)
        assert [type(c) for c in t._chunks] == [tuple, bytes]
        assert t.records[1].get("label") is odd
        assert [r.get("label") for r in t.records[2:]] == ["c", "d", "e"]


def test_a_dict_is_sealed_and_reads_back_with_its_repr():
    # A dict keeps its insertion order through pickle, so its repr (what
    # digest and canonical_lines read) survives the round trip.
    odd = {"z": [1, 2], "a": None}
    with mock.patch.object(trace_module, "_CHUNK", 2):
        t = TraceRecorder()
        for i, label in enumerate(["a", odd, "c"]):
            t.emit(float(i), "fault.inject", "n0", label)
        assert [type(c) for c in t._chunks] == [bytes]
        back = t.records[1].get("label")
    assert back == odd and repr(back) == repr(odd)


def test_reads_decode_only_the_chunks_they_touch():
    with mock.patch.object(trace_module, "_CHUNK", 2):
        t = TraceRecorder()
        for i in range(6):
            t.emit(float(i), "fault.inject", f"n{i % 2}", f"f{i}")
            t.emit(float(i), "lease.renewed", "n0", "server", i * 0.5)
        lines, digest = t.canonical_lines(), t.digest()
        assert all(type(c) is bytes for c in t._chunks)     # kept nothing
        assert [r.get("label") for r in t.scan(("fault.inject",), 6)] == [
            "f3", "f4", "f5"]
        assert [type(c) for c in t._chunks] == [bytes] * 3 + [tuple] * 2
        assert (t.canonical_lines(), t.digest()) == (lines, digest)


def test_a_chunk_a_subscriber_saw_is_not_sealed():
    with mock.patch.object(trace_module, "_CHUNK", 2):
        t = TraceRecorder()
        got = []
        t.subscribe(got.append)
        for i in range(5):
            t.emit(float(i), "fault.inject", "n0", str(i))
        assert [type(c) for c in t._chunks] == [tuple, tuple]
        assert all(a is b for a, b in zip(got, t.records, strict=True))
