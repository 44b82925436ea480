"""Declared trace kinds: the schema table, positional emits, packed
storage and the canonical rendering drawn from the columns."""

import ast
import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from repro.sim import TraceRecord, TraceRecorder
from repro.sim.trace import TRACE_SCHEMAS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# -- the table covers every emit site in src/ --------------------------------

def _emit_calls():
    """(module, call) for every ``.emit(`` call under src/."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"):
                yield rel, node


def _family(prefix):
    return f"{prefix}*" in TRACE_SCHEMAS and prefix.endswith(".")


def test_src_emits_pass_declared_kinds_by_position():
    bad = []
    for rel, call in _emit_calls():
        where = f"{rel}:{call.lineno}"
        if call.keywords:
            bad.append((where, "keyword fields"))
        kind = call.args[1] if len(call.args) > 1 else None
        if isinstance(kind, ast.Constant):
            if kind.value not in TRACE_SCHEMAS:
                bad.append((where, kind.value))
            elif len(call.args) - 3 != len(TRACE_SCHEMAS[kind.value]):
                bad.append((where, "arity"))
        elif isinstance(kind, ast.JoinedStr):
            head = kind.values[0]
            if not (isinstance(head, ast.Constant) and _family(head.value)):
                bad.append((where, "f-string kind outside a declared family"))
    assert bad == []


def test_every_declared_kind_is_emitted_somewhere():
    # A key (or a family's prefix) must appear as a string in src/ outside
    # the table: at an emit site, or where a site's kind comes from (a
    # class attribute, the barrier's per-op keys).
    literals = set()
    for path in SRC.rglob("*.py"):
        if path.name == "trace.py" and path.parent.name == "sim":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    unused = [key for key in TRACE_SCHEMAS
              if key.removesuffix("*") not in literals]
    assert unused == []


def test_variants_of_one_kind_record_different_field_sets():
    by_kind = {}
    for key, fields in TRACE_SCHEMAS.items():
        by_kind.setdefault(key.partition("#")[0], []).append(fields)
    for kind, sets in by_kind.items():
        assert len(set(sets)) == len(sets), kind
        assert all(len(set(f)) == len(f) for f in sets), kind


# -- the emit contract -------------------------------------------------------

def test_wrong_arity_raises():
    t = TraceRecorder()
    t.emit(1.0, "msg.send", "n", "fs.getattr", "m", 1, 0)
    for values in ((), ("fs.getattr", "m", 1), ("a", "b", 1, 2, 3)):
        with pytest.raises(TypeError):
            t.emit(1.0, "msg.send", "n", *values)
    assert len(t) == 1 and t.count("msg.send") == 1


def test_keyword_fields_for_a_declared_kind_raise():
    t = TraceRecorder()
    with pytest.raises(TypeError):
        t.emit(1.0, "lease.steal", "n", client="c1")
    with pytest.raises(TypeError):
        t.emit(1.0, "meta.mutate", "n", op="unlink", path="/f", file_id=3)
    with pytest.raises(TypeError):
        t.emit(1.0, "meta.mutate#unlink", "n", op="unlink", path="/f",
               file_id=3)
    with pytest.raises(TypeError):
        t.emit(1.0, "lease.steal", "n", "c1", client="c1")
    assert len(t) == 0 and t.kinds() == {}


def test_positional_values_for_an_undeclared_kind_raise():
    t = TraceRecorder()
    with pytest.raises(TypeError):
        t.emit(1.0, "a.b", "n", 1)
    with pytest.raises(TypeError):
        t.emit(1.0, "meta.mutate", "n", "unlink", "/f", 3)  # names no variant
    t.emit(1.0, "a.b", "n")
    t.emit(1.0, "a.b", "n", x=1)
    assert [r.detail for r in t] == [{}, {"x": 1}]


def test_the_checks_hold_with_storage_off():
    t = TraceRecorder(enabled=False)
    with pytest.raises(TypeError):
        t.emit(1.0, "lease.steal", "n")
    with pytest.raises(TypeError):
        t.emit(1.0, "lease.steal", "n", client="c1")
    t.emit(1.0, "lease.steal", "n", "c1")
    assert t.kinds() == {"lease.steal": 1} and len(t) == 0


def test_variants_store_their_kind():
    t = TraceRecorder()
    t.emit(1.0, "meta.mutate#unlink", "s", "unlink", "/a", 3)
    t.emit(2.0, "meta.mutate#setattr", "s", "setattr", 3, 10)
    unlink, setattr = t.records
    assert [r.kind for r in t] == ["meta.mutate", "meta.mutate"]
    assert unlink.detail == {"op": "unlink", "path": "/a", "file_id": 3}
    assert setattr.detail == {"op": "setattr", "file_id": 3, "size": 10}
    assert setattr.get("path", "none") == "none"
    assert t.kinds() == {"meta.mutate": 2}
    assert t.select(kind="meta.mutate") == [unlink, setattr]
    assert t.count_prefix("meta.") == 2

def test_a_view_equals_a_standalone_record():
    t = TraceRecorder()
    t.emit(1.5, "lease.phase", "c1", "server", 2)
    [rec] = t.records
    assert rec == TraceRecord(1.5, "lease.phase", "c1",
                              {"server": "server", "phase": 2})
    assert repr(rec) == ("TraceRecord(time=1.5, kind='lease.phase', "
                         "node='c1', detail={'server': 'server', 'phase': 2})")
    rec.detail["phase"] = 9           # a fresh dict: the record is unchanged
    assert rec.get("phase") == 2


def test_reading_views_builds_no_dict_per_record():
    t = TraceRecorder()
    for i in range(2_000):
        t.emit(i * 0.001, "msg.send", "n1", "fs.getattr", "n2", i, i)
    gc.collect()
    before = sum(type(o) is dict for o in gc.get_objects())
    assert sum(r.get("msg_id") for r in t.select(kind="msg.send")) == sum(
        range(2_000))
    assert sum(type(o) is dict for o in gc.get_objects()) - before < 20


def test_a_stored_msg_send_costs_at_most_120_bytes():
    n = 100_000
    t = TraceRecorder()
    emit = t.emit
    names = [f"c{i}" for i in range(64)]
    emit(0.0, "msg.send", "warm", "fs.getattr", "up", 0, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            # msg_id unique, seq per sender: what a run's sends carry
            emit(i * 0.001, "msg.send", names[i % 64], "fs.getattr",
                 names[(i + 1) % 64], i, i // 64)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(t) == n + 1
    assert grown / n <= 120, grown / n


# -- the canonical rendering -------------------------------------------------

def _old_lines(records, noncanonical):
    """The per-record f-string rendering the column templates replaced,
    kept verbatim."""
    lines = []
    for rec in records:
        detail = " ".join(
            f"{k}={rec.detail[k]!r}" for k in sorted(rec.detail)
            if k not in noncanonical)
        lines.append(f"{rec.time:.9f} {rec.kind} {rec.node} {detail}")
    return lines


_VALUES = (0.1, 1e-12, 12345.678901234, -0.0, float("inf"), None, True, 0,
           -7, 2 ** 70, "", "plain", "it's", 'say "hi"', "a{b}c", "{0}",
           "back\\slash", "tab\tnew\nline", [], [1, ("d", 2)], (), ("x",),
           (1, None, "z"), {"k": [1]})


def test_column_templates_render_what_the_old_rendering_did():
    rng = random.Random(7)
    names = ["msg_id", "a", "b", "zed", "tag", "k_1", "Mixed", "x"]
    t = TraceRecorder()
    for i in range(600):
        time = rng.choice([rng.random() * 100, float(i), i / 3])
        node = rng.choice(["c1", "server", "n{0}", "n'q"])
        if rng.random() < 0.5:
            fields = rng.sample(names, rng.randint(0, len(names)))
            kind = rng.choice(["a.b", "x.y.z", "k{}", "msg_id"])
            t.emit(time, kind, node,
                   **{f: rng.choice(_VALUES) for f in fields})
        else:
            key = rng.choice(sorted(TRACE_SCHEMAS))
            values = [rng.choice(_VALUES) for _ in TRACE_SCHEMAS[key]]
            t.emit(time, key.replace("*", "net.rpc"), node, *values)
    for omit in (frozenset(), frozenset({"msg_id"}), frozenset({"a", "tag"})):
        assert t.canonical_lines(omit) == _old_lines(t.records, omit)
