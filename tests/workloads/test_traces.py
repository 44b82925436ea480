"""Synthetic trace workloads (paper §6 future work)."""

import numpy as np
import pytest

from repro.storage import BLOCK_SIZE
from repro.workloads import TraceProfile, TraceReplayer, TraceSynthesizer

from tests.conftest import make_system


def synth(seed=3, **kw):
    return TraceSynthesizer(TraceProfile(**kw), seed=seed)


def test_synthesis_deterministic():
    a = synth().synthesize(["c1", "c2"])
    b = synth().synthesize(["c1", "c2"])
    assert a.files == b.files
    assert a.sessions == b.sessions


def test_different_seed_differs():
    a = TraceSynthesizer(seed=1).synthesize(["c1"])
    b = TraceSynthesizer(seed=2).synthesize(["c1"])
    assert a.sessions != b.sessions


def test_file_sizes_lognormal_body():
    trace = synth(n_files=300).synthesize(["c1"])
    sizes = np.array(list(trace.files.values())) // BLOCK_SIZE
    assert sizes.min() >= 1
    assert sizes.max() <= TraceProfile().max_file_blocks
    # Skewed: a few big files dominate the bytes.
    assert np.mean(sizes) > np.median(sizes)


def test_sessions_structured():
    trace = synth(sessions_per_client=25).synthesize(["c1", "c2"])
    assert trace.total_sessions == 50
    for sess in trace.sessions["c1"]:
        assert sess.mode in ("r", "w")
        assert sess.start_after > 0
        assert len(sess.ops) >= 1
        for op in sess.ops:
            assert op.nbytes > 0
            # every op stays inside the file
            assert op.offset + op.nbytes <= trace.files[sess.path]


def test_read_mode_sessions_never_write():
    trace = synth().synthesize(["c1"])
    for sess in trace.sessions["c1"]:
        if sess.mode == "r":
            assert all(op.op == "read" for op in sess.ops)


def test_popularity_skew():
    trace = synth(n_files=40, zipf_s=1.2,
                  sessions_per_client=200).synthesize(["c1"])
    counts = {}
    for sess in trace.sessions["c1"]:
        counts[sess.path] = counts.get(sess.path, 0) + 1
    top = max(counts.values())
    assert top > trace.total_sessions / 40 * 3  # hot file well above uniform


def test_bytes_by_op_accounting():
    trace = synth().synthesize(["c1"])
    by_op = trace.bytes_by_op()
    total = sum(len(op.nbytes * b"") or op.nbytes
                for s in trace.sessions["c1"] for op in s.ops)
    assert by_op["read"] + by_op["write"] == total


def test_replay_against_system():
    s = make_system(n_clients=2, seed=9)
    trace = synth(n_files=10, sessions_per_client=8,
                  max_file_blocks=16).synthesize(s.config.client_names())
    stats = TraceReplayer(s, trace).run()
    assert set(stats) == {"c1", "c2"}
    for st in stats.values():
        assert st.ops_succeeded > 0
        assert st.ops_rejected == 0  # failure-free replay
    # The replay is coherent end to end.
    from repro.analysis import ConsistencyAuditor
    report = ConsistencyAuditor(s).audit()
    assert report.safe


def test_replay_with_partition_keeps_safety():
    s = make_system(n_clients=2, seed=9)
    trace = synth(n_files=8, sessions_per_client=12,
                  max_file_blocks=8).synthesize(s.config.client_names())
    replayer = TraceReplayer(s, trace)
    boot = s.spawn(replayer.populate())
    s.sim.run_until_event(boot, hard_limit=600)

    def cut():
        yield s.sim.timeout(3.0)
        s.control_net.isolate("c1")
        yield s.sim.timeout(15.0)
        s.control_net.heal_all()
    s.spawn(cut())
    procs = [s.spawn(replayer.replay_client(c)) for c in trace.sessions]
    for p in procs:
        s.sim.run_until_event(p, hard_limit=3600)
    from repro.analysis import ConsistencyAuditor
    report = ConsistencyAuditor(s).audit()
    assert report.safe
    # c1 rode its isolation out: its 30 s lease outlasts the 15 s cut, so
    # the request in flight kept polling the server instead of failing.
    c1 = replayer.stats["c1"]
    assert c1.ops_rejected == 0 and c1.ops_succeeded == c1.ops_attempted
    sends = s.trace.select(kind="msg.send", node="c1")
    assert any(15.0 < rec.time < 18.0 for rec in sends)  # still polling
