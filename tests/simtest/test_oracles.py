"""Firing/clean fixture pairs for every invariant oracle.

Mirrors the ``tests/lint/`` convention: each oracle gets at least one
hand-built run where it must fire and one where it must stay silent,
including its documented exemptions (crash, SAN cut, slow client,
in-flight op, demand compliance in progress).  Trace-driven oracles are
fed synthesized records; lock-compatibility starts from real locks and
leases set up through the actual protocol.  The reference check that
used to poll every client's lock table and lease phase each 0.5 s stays
here, polled by a process the test starts: every conflict it sees at a
tick must be one the fold reported no later.
"""

from __future__ import annotations

import dataclasses
import os

from repro.locks.modes import LockMode, compatible
from repro.net.message import MsgKind
from repro.simtest.oracles import (
    LeaseModelOracle,
    LockCompatibilityOracle,
    NoSilentLossOracle,
    default_oracles,
)
from repro.obs.artifact import load_artifact
from repro.simtest import runner
from repro.simtest.runner import run_schedule
from repro.simtest.schedule import Schedule, generate_schedule
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _two_reader_system():
    """Both clients hold a real SHARED lock on the same file."""
    s = make_system()
    c1, c2 = s.client("c1"), s.client("c2")

    def setup():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd1 = yield from c1.open_file("/f", "r")
        yield from c2.open_file("/f", "r")
        return c1.fds.get(fd1).file_id
    fid = run_gen(s, setup())
    return s, fid


# -- lock-compatibility ---------------------------------------------------

#: How often the reference check polls (the removed poller's period).
POLL_INTERVAL = 0.5


def _conflict(fid, a, b):
    return f"clients {a} and {b} both hold object {fid} under live leases"


def _lock(s, client, fid, mode):
    """A synthesized ``client.lock`` record at the system's present."""
    s.trace.emit(s.sim.now, "client.lock", client, "server", fid, int(mode))


def test_lock_compatibility_fires_on_conflicting_live_locks():
    s, fid = _two_reader_system()
    # c2 upgrades to EXCLUSIVE while c1's SHARED lease is live.
    _lock(s, "c2", fid, LockMode.EXCLUSIVE)
    hits = LockCompatibilityOracle().check_final(s)
    assert [(v.time, v.node, v.message) for v in hits] == [
        (s.sim.now, "c1", _conflict(fid, "c1(SHARED)", "c2(EXCLUSIVE)"))]
    assert hits[0].detail == {"obj": fid, "other": "c2"}


def test_lock_compatibility_clean_on_shared_readers():
    s, _fid = _two_reader_system()
    assert LockCompatibilityOracle().check_final(s) == []


def test_lock_compatibility_exempts_revocation_in_progress():
    s, fid = _two_reader_system()
    c2 = s.client("c2")
    # A demand compliance starts: c2 stops relying on its lock at once,
    # though the table entry stays until the release's ACK is in.
    s.sim.process(c2.lockclient._comply_demand(fid, LockMode.EXCLUSIVE,
                                               "server"))
    s.run(until=s.sim.now + 1e-9)
    assert c2.locks.mode_of(fid) == LockMode.SHARED
    _lock(s, "c1", fid, LockMode.EXCLUSIVE)
    assert LockCompatibilityOracle().check_final(s) == []


def test_lock_compatibility_sees_a_conflict_between_two_polls():
    # Two conflicting grants, both adopted and forfeited inside one poll
    # interval: a poller never sees them, the fold reports each at the
    # instant it was adopted.
    s, fid = _two_reader_system()
    c1, c2 = s.client("c1"), s.client("c2")
    t0 = s.sim.now
    polled = []

    def poll():
        while True:
            yield s.sim.timeout(POLL_INTERVAL)
            polled.extend(_lock_conflicts_one_client_at_a_time(s))

    def grant_twice():
        for dt, client in ((0.1, c1), (0.1, c2)):
            yield s.sim.timeout(dt)
            of = client.fds.by_file_id(fid)[0]
            assert client.lockclient.adopt_grant(
                of, {"lock": int(LockMode.EXCLUSIVE)}, None, s.sim.now)
        yield s.sim.timeout(0.1)
        for client in (c1, c2):
            client.lockclient.forfeit(fid, "test")

    s.spawn(poll(), "poll")
    s.spawn(grant_twice(), "grant-twice")
    s.run(until=t0 + 2 * POLL_INTERVAL + 0.01)
    assert polled == []
    hits = LockCompatibilityOracle().check_final(s)
    assert [(round(v.time - t0, 9), v.node, v.message) for v in hits] == [
        (0.1, "c1", _conflict(fid, "c1(EXCLUSIVE)", "c2(SHARED)")),
        (0.2, "c1", _conflict(fid, "c1(EXCLUSIVE)", "c2(EXCLUSIVE)"))]


def _lock_conflicts_one_client_at_a_time(system):
    """Reference: the check as it read every holder's lease phase, client
    by client; (node, message) per violation, in report order."""
    byz = {rec.node for rec in system.trace.scan({"byz.possess"})}
    holders = {}
    for cname, client in system.pool.live_items():
        if cname in byz or getattr(client, "locks", None) is None:
            continue
        leases, revoking = client.leases, client.lockclient._revoking
        for obj, mode in client.locks.all_held():
            if mode == LockMode.NONE or obj in revoking:
                continue
            srv = client.server_for_file(obj)
            managers = [leases[srv]] if srv in leases else leases.values()
            if any(m.phase().cache_usable for m in managers):
                holders.setdefault(obj, []).append((cname, mode))
    return [(ca, _conflict(obj, f"{ca}({ma.name})", f"{cb}({mb.name})"))
            for obj, entries in holders.items()
            for i, (ca, ma) in enumerate(entries)
            for cb, mb in entries[i + 1:] if not compatible(ma, mb)]


def _polled_run(monkeypatch, schedule):
    """Run ``schedule`` with the reference check polled each 0.5 s; the
    result and the tick at which it first saw each (node, message)."""
    seen = {}
    build = runner.build_system

    def build_and_poll(config):
        system = build(config)

        def poll():
            while True:
                yield system.sim.timeout(POLL_INTERVAL)
                for key in _lock_conflicts_one_client_at_a_time(system):
                    seen.setdefault(key, system.sim.now)
        system.spawn(poll(), "reference-lock-poll")
        return system
    monkeypatch.setattr(runner, "build_system", build_and_poll)
    return run_schedule(schedule), seen


def test_lock_compatibility_reports_what_the_per_client_check_did(
        monkeypatch):
    artifact = load_artifact(os.path.join(
        os.path.dirname(__file__), "artifacts",
        "parked-grant-outlives-server-crash.json"))
    schedules = [
        generate_schedule(15, 4, break_mode="steal_early"),
        dataclasses.replace(Schedule.from_dict(artifact["schedule"]),
                            break_mode="zombie_parked"),
        generate_schedule(70, 20, adversaries=2),  # a possessed holder
        generate_schedule(1, 20, cache_nodes=2),
    ]
    polled = 0
    for schedule in schedules:
        result, seen = _polled_run(monkeypatch, schedule)
        found = {}
        for v in result.violations:
            if v.oracle == "lock-compatibility":
                found.setdefault((v.node, v.message), v.time)
        assert all(key in found and found[key] <= tick
                   for key, tick in seen.items()), (schedule.seed, seen)
        polled += len(seen)
    assert polled > 0


# -- no-silent-loss -------------------------------------------------------

def test_no_silent_loss_fires_on_vanished_ack():
    s = make_system()
    s.trace.emit(5.0, "app.write.ack", "c1", 1, "t-lost", [0],
                 [("disk1", 0)])
    hits = NoSilentLossOracle().check_final(s)
    assert len(hits) == 1
    assert "silently lost" in hits[0].message


def test_no_silent_loss_exempts_crashed_writer():
    s = make_system()
    s.trace.emit(5.0, "app.write.ack", "c1", 1, "t-lost", [0],
                 [("disk1", 0)])
    s.trace.emit(6.0, "fault.inject", "injector", "crash:c1")
    assert NoSilentLossOracle().check_final(s) == []


def test_no_silent_loss_exempts_reported_error():
    s = make_system()
    s.trace.emit(5.0, "app.write.ack", "c1", 1, "t-lost", [0],
                 [("disk1", 0)])
    s.trace.emit(7.0, "app.error", "c1", 1, "t-lost", "lease_expired")
    assert NoSilentLossOracle().check_final(s) == []


def test_no_silent_loss_clean_on_empty_run():
    assert NoSilentLossOracle().check_final(make_system()) == []


# -- the lease model's four claims -----------------------------------------

def _lease(s, claim):
    """The lease model's findings on ``claim``, exemptions applied."""
    return [v for v in LeaseModelOracle().check_final(s) if v.oracle == claim]


# -- expected-failure-flush -----------------------------------------------

def _lease_lost(s, time=5.0, dropped=2, in_flight=0):
    s.trace.emit(time, "client.lease_lost", "c1", "server", dropped,
                 in_flight)


def test_flush_oracle_fires_on_unexcused_dirty_drop():
    s = make_system()
    _lease_lost(s)
    hits = _lease(s, "expected-failure-flush")
    assert len(hits) == 1
    assert hits[0].detail["dirty_dropped"] == 2


def test_flush_oracle_clean_when_nothing_dropped():
    s = make_system()
    _lease_lost(s, dropped=0)
    assert _lease(s, "expected-failure-flush") == []


def test_flush_oracle_exempts_in_flight_op():
    s = make_system()
    _lease_lost(s, in_flight=1)
    assert _lease(s, "expected-failure-flush") == []


def test_flush_oracle_exempts_crashed_client():
    s = make_system()
    s.trace.emit(4.0, "fault.inject", "injector", "crash:c1")
    _lease_lost(s)
    assert _lease(s, "expected-failure-flush") == []


def test_flush_oracle_fires_again_after_restart():
    s = make_system()
    s.trace.emit(3.0, "fault.inject", "injector", "crash:c1")
    s.trace.emit(4.0, "fault.inject", "injector", "restart:c1")
    _lease_lost(s)
    assert len(_lease(s, "expected-failure-flush")) == 1


def test_flush_oracle_exempts_active_san_cut():
    s = make_system()
    s.trace.emit(4.0, "fault.inject", "injector", "san_cut:c1-disk1")
    _lease_lost(s)
    assert _lease(s, "expected-failure-flush") == []


def test_flush_oracle_fires_after_san_heal():
    s = make_system()
    s.trace.emit(3.0, "fault.inject", "injector", "san_cut:c1-disk1")
    s.trace.emit(4.0, "fault.inject", "injector", "heal_san")
    _lease_lost(s)
    assert len(_lease(s, "expected-failure-flush")) == 1


def test_flush_oracle_exempts_slow_client():
    s = make_system(slow_clients=("c1",))
    _lease_lost(s)
    assert _lease(s, "expected-failure-flush") == []


# -- passive-server -------------------------------------------------------

def test_passive_server_fires_on_server_lease_message():
    s = make_system()
    s.trace.emit(2.0, "msg.send", "server", MsgKind.KEEPALIVE, "c1", 1, 1)
    hits = _lease(s, "passive-server")
    assert len(hits) == 1
    assert "lease message" in hits[0].message


def test_passive_server_fires_on_nack_outside_suspect_window():
    s = make_system()
    s.trace.emit(3.0, "lease.server_nack", "server", "c1",
                 MsgKind.LOCK_INTENT)
    hits = _lease(s, "passive-server")
    assert len(hits) == 1
    assert "outside any" in hits[0].message


def test_passive_server_clean_on_nack_inside_suspect_window():
    s = make_system()
    s.trace.emit(2.0, "lease.suspect", "server", "c1", 6.0)
    s.trace.emit(3.0, "lease.server_nack", "server", "c1",
                 MsgKind.LOCK_INTENT)
    s.trace.emit(8.0, "lease.steal", "server", "c1")
    assert _lease(s, "passive-server") == []


def test_passive_server_fires_on_lease_charge_without_suspects():
    s = make_system()
    s.server.authority._count_lease_msg(3)
    hits = _lease(s, "passive-server")
    assert len(hits) == 1
    assert "without ever suspecting" in hits[0].message


def test_passive_server_allows_lease_charge_with_suspects():
    s = make_system()
    s.server.authority._count_lease_msg(3)
    s.trace.emit(2.0, "lease.suspect", "server", "c1", 6.0)
    s.trace.emit(8.0, "lease.steal", "server", "c1")
    assert _lease(s, "passive-server") == []


# -- nack-timed-out -------------------------------------------------------

def _suspect_window_with_request(s, *, nacked: bool,
                                 msg_kind=MsgKind.LOCK_INTENT):
    s.trace.emit(2.0, "lease.suspect", "server", "c1", 6.0)
    s.trace.emit(5.0, "msg.recv", "server", msg_kind, "c1", 1, 1)
    if nacked:
        s.trace.emit(5.0, "lease.server_nack", "server", "c1", msg_kind)
    s.trace.emit(8.0, "lease.steal", "server", "c1")


def test_nack_oracle_fires_on_unanswered_suspect_request():
    s = make_system()
    _suspect_window_with_request(s, nacked=False)
    hits = _lease(s, "nack-timed-out")
    assert len(hits) == 1
    assert "was not NACKed" in hits[0].message


def test_nack_oracle_clean_when_request_nacked():
    s = make_system()
    _suspect_window_with_request(s, nacked=True)
    assert _lease(s, "nack-timed-out") == []


def test_nack_oracle_exempts_reply_frames():
    s = make_system()
    _suspect_window_with_request(s, nacked=False, msg_kind=MsgKind.ACK)
    assert _lease(s, "nack-timed-out") == []


def test_nack_oracle_ignores_window_boundary():
    s = make_system()
    s.trace.emit(2.0, "lease.suspect", "server", "c1", 6.0)
    # Admitted exactly at the boundary: not strictly inside the window.
    s.trace.emit(2.0, "msg.recv", "server", MsgKind.LOCK_INTENT, "c1", 1,
                 1)
    s.trace.emit(8.0, "lease.steal", "server", "c1")
    assert _lease(s, "nack-timed-out") == []


def test_nack_oracle_skipped_under_ablation():
    s = make_system()
    _suspect_window_with_request(s, nacked=False)
    s.server.authority.nack_suspects = False
    assert _lease(s, "nack-timed-out") == []


def test_ack_expiring_is_caught_by_nack_timed_out():
    # The server ACKs the client it is timing out; the twin run is clean.
    broken = run_schedule(generate_schedule(4, 20, break_mode="ack_expiring"))
    assert "nack-timed-out" in broken.oracle_names()
    assert run_schedule(generate_schedule(4, 20)).ok


# -- theorem-3.1 ----------------------------------------------------------

def _renewed_lease_expiry(s, client="c1", renewed_at=5.0):
    """Emit a renewal and return the lease's global expiry instant."""
    clk = s.client(client).endpoint.clock
    contract = s.config.lease.contract()
    start_local = clk.local_time(renewed_at)
    s.trace.emit(renewed_at, "lease.renewed", client, "server",
                 start_local)
    return clk.global_time(contract.client_expiry_local(start_local))


def test_theorem_oracle_fires_on_premature_steal():
    s = make_system()
    expiry = _renewed_lease_expiry(s)
    s.trace.emit(expiry - 1.0, "lease.steal", "server", "c1")
    hits = _lease(s, "theorem-3.1")
    assert len(hits) == 1
    assert "before its lease" in hits[0].message


def test_theorem_oracle_clean_on_post_expiry_steal():
    s = make_system()
    expiry = _renewed_lease_expiry(s)
    s.trace.emit(expiry + 1.0, "lease.steal", "server", "c1")
    assert _lease(s, "theorem-3.1") == []


def test_theorem_oracle_uses_last_renewal():
    s = make_system()
    _renewed_lease_expiry(s, renewed_at=5.0)
    expiry2 = _renewed_lease_expiry(s, renewed_at=9.0)
    # Later than the first lease's expiry but inside the renewed one.
    s.trace.emit(expiry2 - 1.0, "lease.steal", "server", "c1")
    assert len(_lease(s, "theorem-3.1")) == 1


def test_theorem_oracle_exempts_never_leased_client():
    s = make_system()
    s.trace.emit(4.0, "lease.steal", "server", "c1")
    assert _lease(s, "theorem-3.1") == []


def test_theorem_oracle_exempts_slow_client():
    s = make_system(slow_clients=("c1",))
    expiry = _renewed_lease_expiry(s)
    s.trace.emit(expiry - 1.0, "lease.steal", "server", "c1")
    assert _lease(s, "theorem-3.1") == []


# -- library --------------------------------------------------------------

def test_default_oracles_one_of_each():
    names = [o.name for o in default_oracles()]
    assert names == ["lock-compatibility", "no-silent-loss", "lease-model",
                     "cache-serves-no-stale-entry",
                     "fenced-client-serves-no-stale-data",
                     "capability-checked-san-io",
                     "byzantine-containment"]
    assert all(o.claim for o in default_oracles())
