"""RunIndex: the one place that turns a run's trace into oracle facts.

Each query stands in for a helper the oracles used to rebuild from the
flat trace on their own (crash and SAN-cut state, possession, the
namespace replay).  The facts of a (server, client) pair are the lease
model's: its fence windows, first demand, resolutions and lapses are
read from the model, its suspect windows and fence clauses through the
claims they decide.  The last tests pin the index read mid-run (it is
folded anew once the trace grew) against one built at the end, and the
audit memo.
"""

from __future__ import annotations

import pytest

from repro.analysis.consistency import ConsistencyAuditor
from repro.net.message import MsgKind
from repro.simtest.leasemodel import FENCED
from repro.simtest import runner
from repro.simtest.oracles import LeaseModelOracle
from repro.simtest.runindex import RunIndex
from repro.simtest.runner import run_schedule
from repro.simtest.schedule import generate_schedule

from tests.conftest import make_system


def _fault(s, time, label):
    s.trace.emit(time, "fault.inject", "injector", label)


def test_crash_restart_and_san_heal_state_at_a_time():
    s = make_system()
    _fault(s, 3.0, "crash:c1")
    _fault(s, 4.0, "san_cut:c1-disk1")
    _fault(s, 4.5, "san_cut:c2-disk2")
    _fault(s, 5.0, "restart:c1")
    _fault(s, 6.0, "heal_san")
    index = RunIndex.of(s)
    assert not index.down_at("c1", 2.9)
    assert index.down_at("c1", 3.0 - 1e-7)  # inside the slack
    assert index.down_at("c1", 4.9)
    assert not index.down_at("c1", 5.0)     # restarted by then
    assert not index.down_at("c2", 4.0)
    assert index.crashed_since("c1", 3.0)
    assert not index.crashed_since("c1", 3.1)
    assert not index.san_cut_at("c1", 3.9)
    assert index.san_cut_at("c1", 4.0)
    assert index.san_cut_at("c2", 5.9)
    assert not index.san_cut_at("c1", 6.0)  # heal_san heals every node
    assert not index.san_cut_at("c2", 6.0)
    assert not index.san_cut_at("disk1", 4.0)


def _unanswered(s):
    """(time, client) of each request the lease model found un-NACKed."""
    return [(v.time, v.detail["client"])
            for v in LeaseModelOracle().check_final(s)
            if v.oracle == "nack-timed-out"]


def _request(s, time, client="c1"):
    s.trace.emit(time, "msg.recv", "server", MsgKind.LOCK_INTENT, client,
                 1, 1)


def _windows(s, client="c1"):
    """The lease model's fence windows of the (server, client) pair."""
    pair = RunIndex.of(s).lease.pairs.get(("server", client))
    return [] if pair is None else pair.fence_windows(s.sim.now)


def _fence_findings(s):
    """(time, client, message head) of each fence clause the model found."""
    return [(v.time, v.detail["client"], v.message.split(" ")[1])
            for v in LeaseModelOracle().check_final(s) if v.oracle == FENCED]


def test_windows_pair_opens_with_closes_and_ignore_strays():
    s = make_system()
    emit = s.trace.emit
    emit(1.0, "lease.steal", "server", "c1")       # close with none open
    _request(s, 1.5)
    emit(2.0, "lease.suspect", "server", "c1", 6.0)
    _request(s, 2.5)
    emit(3.0, "lease.suspect", "server", "c1", 6.0)  # already open
    _request(s, 4.0)
    emit(4.0, "lease.suspect", "server", "c2", 6.0)
    emit(5.0, "lease.steal", "server", "c1")
    _request(s, 6.0)
    _request(s, 6.5, "c2")
    emit(8.0, "lease.suspect", "server", "c1", 6.0)
    _request(s, 8.5)
    emit(9.0, "lease.steal", "server", "c1")
    s.run(until=10.0)  # c2's window is still open
    assert sorted(_unanswered(s)) == [(2.5, "c1"), (4.0, "c1"),
                                      (6.5, "c2"), (8.5, "c1")]
    assert _windows(s) == []
    assert RunIndex.of(s).lease.suspecting == {"server"}


def test_windows_tie_sorts_an_open_before_a_close():
    s = make_system()
    emit = s.trace.emit
    emit(2.0, "server.fence", "server", "c1")
    # Emitted close-then-open at one instant: the open sorts first, is
    # ignored (a window is open), and the close ends the only window.
    emit(5.0, "server.unfence", "server", "c1")
    emit(5.0, "server.fence", "server", "c1")
    assert _windows(s) == [(2.0, 5.0)]
    assert RunIndex.of(s).lease.pairs["server", "c1"].trusted == 5.0
    # At a close with no window open, a later open at the same instant
    # sorts first: the close ends it there.
    emit(6.0, "server.unfence", "server", "c1")
    emit(6.0, "server.fence", "server", "c1")
    emit(6.0, "server.fence", "server", "c1")
    assert _windows(s) == [(2.0, 5.0), (6.0, 6.0)]


def test_an_unclosed_window_ends_at_the_current_time():
    s = make_system()
    s.trace.emit(0.5, "server.fence", "server", "c1")
    s.trace.emit(0.5, "lease.suspect", "server", "c1", 6.0)
    _request(s, 3.0)
    s.run(until=3.0)
    assert _windows(s) == [(0.5, 3.0)]
    assert _unanswered(s) == []  # on the open window's edge
    s.run(until=4.0)
    assert _windows(s) == [(0.5, 4.0)]
    assert _unanswered(s) == [(3.0, "c1")]


def test_window_edges_are_inclusive_for_nacks_and_strict_for_requests():
    s = make_system()
    emit = s.trace.emit
    emit(2.0, "lease.suspect", "server", "c1", 6.0)
    _request(s, 2.0 + 1e-7)  # unanswered, on the opening edge
    _request(s, 8.0 - 1e-7)  # unanswered, on the closing edge
    emit(8.0, "lease.steal", "server", "c1")
    emit(8.0 + 1e-7, "lease.server_nack", "server", "c1",
         MsgKind.LOCK_INTENT)
    # A NACK on the window's edge is inside passive-server's window; a
    # request on the edge is outside nack-timed-out's interior.
    assert LeaseModelOracle().check_final(s) == []
    emit(8.1, "lease.server_nack", "server", "c1", MsgKind.LOCK_INTENT)
    assert [v.time for v in LeaseModelOracle().check_final(s)] == [8.1]


def test_a_reassert_is_judged_against_the_window_it_fell_in():
    s = make_system()
    emit = s.trace.emit
    emit(1.0, "server.reassert", "server", "c1", 7, 2)   # before any fence
    emit(2.0, "server.fence", "server", "c1")
    emit(2.0, "server.reassert", "server", "c1", 8, 2)   # on the open edge
    emit(3.0, "server.reassert", "server", "c1", 9, 2)   # inside
    emit(4.0, "server.reassert", "server", "c1", 10, 2)  # on the close edge:
    emit(4.0, "server.unfence", "server", "c1")          # the unfence follows
    emit(4.0, "client.lease_lost", "c1", "server", 0, 0)  # earns no lift
    emit(4.5, "server.reassert", "server", "c1", 11, 2)  # after the lift
    emit(5.0, "server.fence", "server", "c1")
    emit(6.0, "server.reassert", "server", "c1", 12, 2)  # in an open window
    s.run(until=6.0)
    assert _fence_findings(s) == [(3.0, "c1", "granted"),
                                  (4.0, "c1", "unfenced")]
    s.run(until=7.0)  # the open window now runs past the reassert
    assert [v.detail.get("obj") for v in LeaseModelOracle().check_final(s)
            if v.oracle == FENCED] == [9, None, 12]


def test_an_unfence_needs_a_lapse_since_the_pair_last_trusted_the_client():
    s = make_system()
    emit = s.trace.emit
    emit(1.0, "client.lease_lost", "c1", "server", 0, 0)
    emit(2.0, "server.fence", "server", "c1")
    emit(3.0, "server.unfence", "server", "c1")   # earned by the lapse at 1
    emit(4.0, "server.fence", "server", "c1")
    emit(5.0, "server.unfence", "server", "c1")   # no lapse since 3
    emit(5.5, "netcache.flush", "c1", "server", "admin", 3)  # not a lapse
    emit(6.0, "server.fence", "server", "c1")
    emit(7.0, "netcache.flush", "c1", "server", "lease-expired", 3)
    emit(8.0, "server.unfence", "server", "c1")   # earned by the flush
    emit(9.0, "server.unfence", "server", "c2")   # c2 never lapsed
    assert _fence_findings(s) == [(5.0, "c1", "unfenced"),
                                  (9.0, "c2", "unfenced")]


def test_byzantine_labels_name_client_and_kinds():
    s = make_system()
    _fault(s, 1.0, "byz_ignore_lease_expiry:c2")
    _fault(s, 2.0, "byz_forge_san_write:c2")
    _fault(s, 3.0, "byz_stretch_clock:")      # no client: ignored
    _fault(s, 4.0, "byz_suppress_release")    # no separator: ignored
    _fault(s, 5.0, "crash:c1")
    assert RunIndex.of(s).byzantine == {
        "c2": ["ignore_lease_expiry", "forge_san_write"]}


def test_first_demand_resolution_and_lapses():
    s = make_system()
    emit = s.trace.emit
    emit(1.0, "msg.send", "c1", MsgKind.LOCK_DEMAND, "c2", 1, 1)  # no server
    emit(2.0, "msg.send", "server", MsgKind.ACK, "c1", 2, 1)
    emit(3.0, "msg.send", "server", MsgKind.LOCK_DEMAND, "c1", 3, 2)
    emit(4.0, "msg.send", "server", MsgKind.LOCK_DEMAND, "c1", 4, 3)
    emit(4.5, "msg.send", "server", MsgKind.KEEPALIVE, "c2", 5, 1)
    pairs = RunIndex.of(s).lease.pairs
    assert {key: pair.first_demand for key, pair in pairs.items()
            if pair.first_demand < float("inf")} == {("server", "c1"): 3.0}
    assert [(v.time, v.oracle, v.detail["dst"])
            for v in LeaseModelOracle().check_final(s)] == [
        (4.5, "passive-server", "c2")]
    assert not pairs["server", "c1"].resolved_since(3.0)
    emit(6.0, "lease.suspect", "server", "c1", 6.0)
    pair = RunIndex.of(s).lease.pairs["server", "c1"]
    assert pair.resolved_since(6.0 + 1e-7)
    assert not pair.resolved_since(6.5)
    emit(7.0, "server.steal", "server", "c1", 2)
    index = RunIndex.of(s)
    assert index.lease.pairs["server", "c1"].resolved_since(6.5)
    assert ("server", "c2") not in index.lease.pairs

    emit(9.0, "client.lease_lost", "c1", "server", 2, 0)
    emit(8.0, "netcache.flush", "c1", "server", "lease-expired", 3)
    emit(8.5, "netcache.flush", "c1", "server", "admin", 3)
    index = RunIndex.of(s)
    assert sorted(index.lease.lapses["c1"]) == [8.0, 9.0]
    assert [(t, claim, node) for claim, t, node, _, _
            in index.lease.findings] == [
        (4.5, "passive-server", "server"),
        (9.0, "expected-failure-flush", "c1")]


def test_namespace_replay_checks_each_hit_against_its_instant():
    s = make_system()
    emit = s.trace.emit
    emit(1.0, "meta.mutate#create", "server", "create", "/d/a", 7, 10)
    emit(2.0, "netcache.hit", "m1", "lookup", "server", "/d/a", 7)
    emit(2.0, "netcache.hit", "m1", "attrs", "server", "/d/a", (7, 10))
    emit(2.0, "netcache.hit", "m1", "readdir", "server", "/d", ("/d/a",))
    emit(3.0, "meta.mutate#setattr", "server", "setattr", 7, 20)
    emit(4.0, "netcache.hit", "m1", "attrs", "server", "/d/a", (7, 10))
    emit(5.0, "meta.mutate#unlink", "server", "unlink", "/d/a", 7)
    emit(5.0, "meta.mutate#unlink", "server", "unlink", "/d/a", 7)  # again
    emit(6.0, "netcache.hit", "m1", "lookup", "server", "/d/a", 7)
    emit(6.0, "netcache.hit", "m1", "readdir", "server", "/d", ("/d/a",))
    stale = [(t, reason) for t, _, reason, _ in RunIndex.of(s).stale_hits]
    assert stale == [
        (4.0, "attrs hit for '/d/a' served (fid=7, size=10), "
              "authoritative is (fid=7, size=20)"),
        (6.0, "lookup hit for '/d/a' served 7 but the path does not exist"),
        (6.0, "readdir hit for '/d' served ('/d/a',), authoritative "
              "listing is ()"),
    ]


def _facts(index):
    """Every fact the index holds, as comparable plain data."""
    facts = {name: value for name, value in vars(index).items()
             if name not in ("_system", "_audit", "_namespace", "lease")}
    ns = index._namespace
    facts["namespace"] = [(path, ns.lookup(path)) for path in ns]
    lease = index.lease
    facts["lease"] = (lease.suspecting, lease._nacks, lease.lapses,
                      lease.findings, {
                          key: [getattr(p, slot) for slot in p.__slots__]
                          for key, p in lease.pairs.items()})
    return facts


@pytest.mark.parametrize("seed,flags", [
    (118, {"adversaries": 2}),   # a standing byzantine-containment fire
    (1, {"cache_nodes": 2}),     # namespace replay against real hits
    (4, {}),
])
def test_an_index_synced_at_every_live_tick_equals_one_built_at_the_end(
        monkeypatch, seed, flags):
    # A process the test starts reads the index every 0.5 s mid-run: each
    # read folds the grown trace anew, and the run's own final check
    # reads one equal to an index built at the end.
    folds = []
    build, init = runner.build_system, RunIndex.__init__

    def counted(self, system):
        folds.append(len(system.trace))
        init(self, system)

    def build_and_read(config):
        system = build(config)

        def read():
            while True:
                yield system.sim.timeout(0.5)
                RunIndex.of(system)
        system.spawn(read(), "reads-the-index")
        return system
    monkeypatch.setattr(RunIndex, "__init__", counted)
    monkeypatch.setattr(runner, "build_system", build_and_read)
    result = run_schedule(generate_schedule(seed, 20, **flags),
                          keep_system=True)
    system = result.system
    assert len(set(folds)) > 10       # the trace grew between reads
    final = RunIndex.of(system)
    assert folds[-1] == len(system.trace)
    assert _facts(RunIndex(system)) == _facts(final)
    assert _facts(final)["_folded"] == len(system.trace)


def test_one_audit_per_adversarial_run(monkeypatch):
    calls = []
    audit = ConsistencyAuditor.audit

    def counted(self):
        calls.append(self.system)
        return audit(self)
    monkeypatch.setattr(ConsistencyAuditor, "audit", counted)
    result = run_schedule(generate_schedule(174, 20, adversaries=2))
    # no-silent-loss and capability-checked-san-io share one report
    assert result.oracle_names() == ["capability-checked-san-io"]
    assert len(calls) == 1
