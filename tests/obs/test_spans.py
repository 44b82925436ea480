"""Span tracing: nesting over simulated time, export bounds."""

from repro.obs.spans import SpanTracer
from repro.sim.kernel import Simulator


def test_span_lifecycle_and_duration():
    tracer = SpanTracer()
    s = tracer.begin(1.0, "lease.phase.normal", "c1", server="server")
    assert s.open and s.duration is None
    assert tracer.open_spans() == [s]
    s.end(4.5, reason="renewed")
    assert not s.open
    assert s.duration == 3.5
    assert s.attrs == {"server": "server", "reason": "renewed"}
    assert tracer.open_spans() == []
    assert tracer.completed == [s]


def test_end_is_idempotent():
    tracer = SpanTracer()
    s = tracer.begin(0.0, "net.rpc", "c1")
    s.end(1.0)
    s.end(9.0)  # ignored
    assert s.end_time == 1.0
    assert len(tracer.completed) == 1


def test_nesting_over_simulated_time():
    """Spans nest via explicit parents across a real simulated run."""
    sim = Simulator()
    tracer = SpanTracer()
    done = {}

    def proc():
        outer = tracer.begin(sim.now, "server.recovery", "server")
        yield sim.timeout(2.0)
        inner = tracer.begin(sim.now, "server.recovery.grace", "server",
                             parent=outer)
        yield sim.timeout(3.0)
        inner.end(sim.now)
        yield sim.timeout(1.0)
        outer.end(sim.now)
        done["outer"], done["inner"] = outer, inner

    sim.process(proc(), name="spans")
    sim.run(until=100)
    outer, inner = done["outer"], done["inner"]
    assert inner.parent_id == outer.span_id
    assert (inner.start, inner.end_time) == (2.0, 5.0)
    assert (outer.start, outer.end_time) == (0.0, 6.0)
    # child interval strictly inside the parent interval
    assert outer.start <= inner.start and inner.end_time <= outer.end_time
    assert tracer.children_of(outer) == [inner]
    # inner completed first, so completion order is inner, outer
    assert tracer.completed == [inner, outer]


def test_select_matches_dotted_prefix_only():
    tracer = SpanTracer()
    tracer.begin(0.0, "lease.phase.normal", "c1").end(1.0)
    tracer.begin(0.0, "lease.phases_other", "c1").end(1.0)
    kinds = [s.kind for s in tracer.select("lease.phase")]
    assert kinds == ["lease.phase.normal"]
    assert tracer.total_duration("lease.phase") == 1.0


def test_max_spans_bound_drops_excess():
    tracer = SpanTracer(max_spans=2)
    for i in range(4):
        tracer.begin(0.0, "net.rpc", "c1").end(1.0)
    assert len(tracer.completed) == 2
    assert tracer.dropped == 2
