"""Trace recorder storage, counting and filtering."""

import gc

from repro.sim import TraceRecord, TraceRecorder


def test_emit_and_len(trace):
    trace.emit(1.0, "a.b", "n1", x=1)
    trace.emit(2.0, "a.c", "n2")
    assert len(trace) == 2


def test_counts_survive_disabled_storage():
    t = TraceRecorder(enabled=False)
    t.emit(1.0, "a.b", "n")
    assert len(t) == 0
    assert t.count("a.b") == 1


def test_count_prefix(trace):
    trace.emit(1.0, "msg.send", "n", "fs.getattr", "m", 1, 1)
    trace.emit(1.0, "msg.recv", "n", "fs.getattr", "m", 1, 1)
    trace.emit(1.0, "lease.renew", "n")
    assert trace.count_prefix("msg") == 2


def test_select_filters(trace):
    trace.emit(1.0, "a.b", "n1")
    trace.emit(2.0, "a.b", "n2")
    trace.emit(3.0, "a.c", "n1")
    assert len(trace.select(kind="a.b")) == 2
    assert len(trace.select(node="n1")) == 2
    assert len(trace.select(kind="a.b", node="n1")) == 1
    assert len(trace.select(prefix="a")) == 3


def test_record_get_accessor(trace):
    trace.emit(1.0, "a.b", "n", foo="bar")
    rec = trace.records[0]
    assert rec.get("foo") == "bar"
    assert rec.get("missing", 7) == 7


def test_subscriber_sees_records(trace):
    got = []
    trace.subscribe(got.append)
    trace.emit(1.0, "a.b", "n")
    assert len(got) == 1


def test_clear(trace):
    trace.emit(1.0, "a.b", "n")
    trace.clear()
    assert len(trace) == 0
    assert trace.count("a.b") == 0


def test_kinds_mapping(trace):
    trace.emit(1.0, "a.b", "n")
    trace.emit(1.0, "a.b", "n")
    assert trace.kinds() == {"a.b": 2}


def test_falsy_empty_recorder_still_usable():
    """Regression: an empty recorder is falsy (len 0) but must never be
    replaced by `or`-defaulting — components use `is not None` checks."""
    t = TraceRecorder(enabled=True)
    assert not t  # falsy when empty
    t.emit(0.0, "x", "n")
    assert len(t) == 1


def test_noop_recorder_skips_counts_and_storage():
    t = TraceRecorder(enabled=False, counting=False)
    assert t._noop
    t.emit(1.0, "a.b", "n", x=1)
    assert len(t) == 0
    assert t.count("a.b") == 0
    assert t.kinds() == {}


def test_select_kind_uses_index_and_matches_scan():
    t = TraceRecorder(enabled=True)
    for i in range(6):
        t.emit(float(i), "a.b" if i % 2 else "a.c", f"n{i % 3}")
    indexed = t.select(kind="a.b")
    scanned = [r for r in t.records if r.kind == "a.b"]
    assert indexed == scanned
    assert t.select(kind="a.b", node="n1") == [
        r for r in scanned if r.node == "n1"]


def test_clear_resets_index_and_stride():
    # Every emit is stored (there is no sampling stride); clear must empty
    # the kind index as well as the record list, and later emits re-index.
    t = TraceRecorder(enabled=True)
    t.emit(1.0, "a.b", "n")
    t.emit(2.0, "a.b", "n")
    t.clear()
    assert t.select(kind="a.b") == []
    t.emit(3.0, "a.b", "n")
    t.emit(4.0, "a.b", "n")
    assert len(t) == 2
    assert [r.time for r in t.select(kind="a.b")] == [3.0, 4.0]


def test_stored_records_add_no_gc_tracked_objects():
    # Columns of atoms: the cyclic GC sees the recorder's few containers,
    # not one object per record.
    t = TraceRecorder(enabled=True)
    t.emit(0.0, "warm.up", "n")
    gc.collect()
    before = len(gc.get_objects())
    for i in range(10_000):
        t.emit(i * 0.001, "msg.send", "n1", "fs.getattr", "n2", i, i)
    assert len(gc.get_objects()) - before < 100
    assert len(t) == 10_001


def _emit_batch(t, start, n):
    # Declared kinds by position and an undeclared one by keyword, each
    # record carrying its index as msg_id.
    for i in range(start, start + n):
        kind = ("msg.send", "msg.recv", "lease.renew")[i % 3]
        if kind == "lease.renew":
            t.emit(float(i), kind, f"n{i % 2}", msg_id=i)
        else:
            t.emit(float(i), kind, f"n{i % 2}", "fs.getattr", "n9", i, 0)


def test_interleaved_reads_follow_emission_order():
    t = TraceRecorder(enabled=True)
    emitted = 0
    for batch in (5, 0, 7, 1, 4):
        _emit_batch(t, emitted, batch)
        emitted += batch
        records = t.records
        assert [r.get("msg_id") for r in records] == list(range(emitted))
        assert list(t) == records
        assert t.select(kind="msg.recv") == [
            r for r in records if r.kind == "msg.recv"]
        assert t.select(node="n1") == [r for r in records if r.node == "n1"]
        assert t.select(prefix="msg") == [
            r for r in records if r.kind.startswith("msg")]
        assert t.select(kind="lease.renew", node="n0", prefix="lease") == [
            r for r in records if r.kind == "lease.renew" and r.node == "n0"]


def test_repeated_reads_return_the_same_objects():
    t = TraceRecorder(enabled=True)
    _emit_batch(t, 0, 6)
    first = t.select(kind="msg.send")
    records = t.records
    _emit_batch(t, 6, 6)
    again = t.records
    assert all(a is b for a, b in zip(records, again))
    assert all(a is b for a, b in zip(first, t.select(kind="msg.send")))
    assert all(a is b for a, b in zip(again, t))
    assert records[0] == TraceRecord(0.0, "msg.send", "n0", {
        "msg_kind": "fs.getattr", "dst": "n9", "msg_id": 0, "seq": 0})


def test_subscriber_gets_the_record_later_reads_return():
    t = TraceRecorder(enabled=True)
    _emit_batch(t, 0, 3)            # emitted before anyone subscribed
    got = []
    t.subscribe(got.append)
    _emit_batch(t, 3, 4)
    assert [r.get("msg_id") for r in got] == [3, 4, 5, 6]
    assert all(a is b for a, b in zip(got, t.records[3:]))
    assert got[0] is t.select(kind="msg.send")[1]


def test_clear_resets_columns_views_and_index():
    t = TraceRecorder(enabled=True)
    _emit_batch(t, 0, 6)
    t.select(kind="msg.send")
    t.clear()
    assert len(t) == 0 and t.records == [] and list(t) == []
    assert t.kinds() == {}
    _emit_batch(t, 6, 9)            # no select between clear and emits
    assert [r.get("msg_id") for r in t.select(kind="msg.send")] == [6, 9, 12]
    assert [r.get("msg_id") for r in t.records] == list(range(6, 15))


def test_disabled_storage_counts_and_keeps_nothing():
    t = TraceRecorder(enabled=False)
    _emit_batch(t, 0, 6)
    assert t.count("msg.send") == 2 and t.count_prefix("msg") == 4
    assert len(t) == 0 and t.records == [] and list(t) == []
    assert t.select() == [] and t.select(kind="msg.send") == []


# -- scan and digest -------------------------------------------------------

def test_scan_builds_views_only_for_the_kinds_and_nodes_asked_for():
    t = TraceRecorder(enabled=True)
    _emit_batch(t, 0, 9)    # send, recv, lease.renew; nodes n0/n1 alternate
    kinds = ("msg.recv", "lease.renew")
    got = t.scan(kinds, 2, nodes={"n0"}, node_kinds={"msg.recv"})
    assert [(r.kind, r.node, r.get("msg_id")) for r in got] == [
        ("lease.renew", "n0", 2), ("msg.recv", "n0", 4),
        ("lease.renew", "n1", 5), ("lease.renew", "n0", 8)]
    assert sum(v is not None for v in t._views) == 4
    assert all(a is b for a, b in zip(got, t.scan(
        kinds, 2, nodes={"n0"}, node_kinds={"msg.recv"})))
    assert [r.get("msg_id") for r in t.records if r.kind == "msg.recv"
            and r.node == "n0"] == [4]
    assert [r.get("msg_id") for r in t.scan(kinds, 6)] == [7, 8]
    assert t.scan(kinds, len(t)) == []


def _digest_of(records, omit=frozenset({"msg_id"})):
    t = TraceRecorder(enabled=True)
    for time, kind, node, values in records:
        t.emit(time, kind, node, *values)
    return t.digest(omit)


_RUN = [(0.5, "msg.send", "c1", ("fs.getattr", "server", 7, 1)),
        (0.75, "msg.recv", "server", ("fs.getattr", "c1", 7, 1)),
        (1.0, "lease.renewed", "c1", ("server", 0.25)),
        (1.0, "server.reassert", "server", ("c1", 3, "EXCLUSIVE"))]


#: A kind of the same arity for each kind of _RUN.
_OTHER_KIND = {"msg.send": "msg.recv", "msg.recv": "msg.send",
               "lease.renewed": "lease.suspect",
               "server.reassert": "server.reject"}


def test_digest_moves_with_every_time_kind_node_and_value():
    base = _digest_of(_RUN)
    assert _digest_of(_RUN) == base
    for i, (time, kind, node, values) in enumerate(_RUN):
        changes = [(time + 1e-9, kind, node, values),
                   (time, _OTHER_KIND[kind], node, values),
                   (time, kind, node + "x", values)]
        for j, value in enumerate(values):
            if kind.startswith("msg.") and j == 2:
                continue    # msg_id: left out on purpose
            bumped = list(values)
            bumped[j] = (value + 1 if isinstance(value, (int, float))
                         else value + "x")
            changes.append((time, kind, node, tuple(bumped)))
        for changed in changes:
            run = list(_RUN)
            run[i] = changed
            assert _digest_of(run) != base, changed
    assert _digest_of(_RUN[:-1]) != base


def test_digest_ignores_only_the_omitted_fields():
    renumbered = [(time, kind, node, values[:2] + (values[2] + 100,)
                   + values[3:]) if kind.startswith("msg.") else
                  (time, kind, node, values)
                  for time, kind, node, values in _RUN]
    assert _digest_of(renumbered) == _digest_of(_RUN)
    assert _digest_of(renumbered, frozenset()) != _digest_of(_RUN, frozenset())
