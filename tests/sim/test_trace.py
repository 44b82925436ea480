"""Trace recorder storage, counting and filtering."""

from repro.sim import TraceRecorder


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
    trace.emit(1.0, "msg.send", "n")
    trace.emit(1.0, "msg.recv", "n")
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
