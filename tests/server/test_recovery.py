"""Server failure recovery via client-driven lock reassertion (§6)."""

import pytest

from repro.locks import SCOPED, LockMode
from repro.net.message import MsgKind, RangeAcquire
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _holder(s, client, path="/f"):
    out = {}

    def app():
        yield from client.create(path, size=BLOCK_SIZE)
        fd = yield from client.open_file(path, "w")
        out["tag"] = yield from client.write(fd, 0, BLOCK_SIZE)
        out["fd"] = fd
        out["fid"] = client.fds.get(fd).file_id
    run_gen(s, app())
    return out


def test_crash_wipes_lock_table_keeps_metadata():
    s = make_system(n_clients=1)
    c1 = s.client("c1")
    out = _holder(s, c1)
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.EXCLUSIVE
    s.server.crash()
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.NONE
    assert s.server.metadata.exists("/f")  # private store survives


def test_epoch_bumps_on_restart():
    s = make_system(n_clients=1)
    e0 = s.server.recovery.epoch
    s.server.crash()
    s.server.restart()
    assert s.server.recovery.epoch == e0 + 1
    [window] = s.server.recovery.windows     # over every object
    assert window.slots is None
    assert window.fresh_from > s.server.local_now()


def test_client_reasserts_after_restart():
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c1 = s.client("c1")
    out = _holder(s, c1)
    s.server.crash()
    s.run(until=s.sim.now + 1.0)
    s.server.restart()
    # The idle client's next contact is its phase-2 keep-alive (≤ 0.5 tau
    # after the last renewal); the epoch change then triggers reassertion.
    s.run(until=s.sim.now + 25.0)
    assert c1.lockclient.reasserts_sent >= 1
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.EXCLUSIVE
    assert s.server.recovery.reasserted >= 1
    # Cached dirty data survived the server outage untouched.
    assert c1.cache.peek(out["fid"], 0).tag == out["tag"]


def test_cached_data_readable_after_recovery():
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c1 = s.client("c1")
    out = _holder(s, c1)
    s.server.crash()
    s.run(until=s.sim.now + 2.0)
    s.server.restart()
    s.run(until=s.sim.now + 25.0)

    def read():
        return (yield from c1.read(out["fd"], 0, BLOCK_SIZE))
    res = run_gen(s, read())
    assert res == [(0, out["tag"])]


def test_fresh_acquisitions_deferred_during_grace():
    """A new client's lock request during the grace window waits until
    reassertions had their chance."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = _holder(s, c1)
    s.server.crash()
    s.run(until=s.sim.now + 1.0)
    restart_at = s.sim.now
    s.server.restart()
    result = {}

    def newcomer():
        # c2 asks immediately; c1's reassertion must win the object.
        fd = yield from c2.open_file("/f", "r")
        result["granted_at"] = s.sim.now
    s.spawn(newcomer())
    s.run(until=s.sim.now + 60.0)
    grace = s.server.contract.server_wait_local()
    assert result["granted_at"] >= restart_at + grace * 0.9
    # c2's read open demanded a downgrade from the reasserted holder;
    # c1 therefore still holds at least SHARED.
    assert s.server.locks.mode_of("c1", out["fid"]) >= LockMode.SHARED


def test_conflicting_reassertion_refused():
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1 = s.client("c1")
    out = _holder(s, c1)
    s.server.crash()
    s.run(until=s.sim.now + 1.0)
    s.server.restart()
    # An impostor claims the object first (simulating a pre-crash steal
    # whose outcome c1 never learned).
    from repro.net import MsgKind
    from repro.net.message import Reassert

    def impostor():
        yield from s.client("c2").endpoint.request(
            "server", MsgKind.LOCK_REASSERT,
            Reassert(out["fid"], int(LockMode.EXCLUSIVE)))
    run_gen(s, impostor())
    s.run(until=s.sim.now + 30.0)
    # c1's reassertion was refused; it forfeited the lock and cache.
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.NONE
    assert s.server.locks.mode_of("c2", out["fid"]) == LockMode.EXCLUSIVE
    assert s.server.recovery.reassert_conflicts >= 1
    assert c1.cache.peek(out["fid"], 0) is None


def test_workload_survives_server_restart():
    from repro.workloads import run_workload
    from repro.core import WorkloadConfig
    s = make_system(n_clients=2,
                    workload=WorkloadConfig(n_files=4, think_time=0.1))

    def outage():
        yield s.sim.timeout(10.0)
        s.server.crash()
        yield s.sim.timeout(3.0)
        s.server.restart()
    s.spawn(outage())
    stats = run_workload(s, duration=40.0)
    # Clients rode out the outage and kept completing operations after.
    assert all(v.ops_succeeded > 20 for v in stats.values())
    assert s.server.recovery.restarts == 1


def test_every_ack_the_server_decides_carries_its_epoch():
    """The epoch stamp rides every ACK by construction, however the
    handler was registered: a ``LOCK_REASSERT`` ACK (RecoveryManager
    registers it on the raw endpoint) and a parked transaction's pending
    re-ACKs and its one final, which renews like any other ACK."""
    from repro.net import MsgKind, ReplyObserver
    from repro.net.message import Reassert

    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = _holder(s, c1)
    s.server.crash()
    s.run(until=s.sim.now + 1.0)
    s.server.restart()
    epoch = s.server.recovery.epoch

    reply = run_gen(s, c1.endpoint.request(
        "server", MsgKind.LOCK_REASSERT,
        Reassert(out["fid"], int(LockMode.EXCLUSIVE))))
    assert reply.stamp == (epoch, None)

    seen = []

    class Probe(ReplyObserver):
        def on_reply(self, reply, renewal_time):
            if reply.kind == MsgKind.ACK:
                seen.append((reply, renewal_time))
    c2.endpoint.observers.append(Probe())
    # A fresh acquisition inside the grace window parks until the window
    # closes; its retries and polls are re-ACKed pending meanwhile.
    run_gen(s, c2.open_file("/f", "r"))
    receipts = [r for r, _t in seen if r.pending]
    finals = [r for r, _t in seen if not r.pending]
    assert len(receipts) >= 2 and len(finals) == 1
    assert all(t is not None for _r, t in seen)
    assert all(r.stamp == (epoch, None) for r, _t in seen)


def test_request_parked_when_its_server_crashes_completes_after_restart():
    """A7's ride-out without a receipt ACK: c2's open parks behind an
    unreachable holder, the server crashes before any retry reaches it
    (so nothing ever answered c2), and c2 — holding its lease — polls
    through the outage until the restarted server re-executes."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    _holder(s, c1)
    _holder(s, c2, "/g")                    # c2 holds a lease too
    s.ctrl_partitions.isolate("c1")
    result = {}

    def opener():
        result["fd"] = yield from c2.open_file("/f", "w")
        result["at"] = s.sim.now
    proc = s.spawn(opener())
    parked = s.server.endpoint._parked
    while not parked:
        s.run(until=s.sim.now + 0.01)
    assert len(parked) == 1
    s.server.crash()            # well inside c2's first retry timeout
    crashed_at = s.sim.now
    s.run(until=crashed_at + 10.0)
    s.ctrl_partitions.heal()
    s.server.restart()
    s.sim.run_until_event(proc, hard_limit=s.sim.now + 120.0)
    assert proc.exception is None and "fd" in result
    assert result["at"] > crashed_at + 10.0
    assert c2.ops_rejected == 0


def test_byte_range_grant_waits_out_the_restart_window():
    """A byte-range acquire issued inside the post-restart window is
    granted no earlier than the window's fresh deadline, as a whole-file
    grant is: reassertions claim their objects first on every grant
    path."""
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c1 = s.client("c1")

    def setup():
        yield from c1.create("/f", size=BLOCK_SIZE)
        return (yield from c1.open_file("/f", "r"))
    fd = run_gen(s, setup())
    s.server.crash()
    s.run(until=s.sim.now + 1.0)
    s.server.restart()
    deadline = s.server.local_now() + s.server.contract.server_wait_local()
    run_gen(s, c1.write_range_locked(fd, 0, BLOCK_SIZE))
    [grant_t] = [g.time for g in s.server.locks.history
                 if g.op == "grant" and g.kind == SCOPED]
    clock = s.server.endpoint.clock
    assert clock.local_time(grant_t) >= deadline - 1e-9


def test_crash_drops_queued_range_waiters():
    """A crash forgets queued byte-range requests along with the handler
    processes that made them: after the restart, the retried request is
    the only one in the queue, not the second behind an orphan."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    fds = {}

    def setup():
        yield from c1.create("/f", size=16 * BLOCK_SIZE)
        fds["c2"] = yield from c2.open_file("/f", "r")
        fds["fid"] = c2.fds.get(fds["c2"]).file_id
    run_gen(s, setup())
    fid = fds["fid"]
    # c1 takes an EXCLUSIVE range and keeps it; c2 queues behind it.
    run_gen(s, c1.endpoint.request(
        "server", MsgKind.LOCK_INTENT,
        RangeAcquire(fid, 0, 64 * 1024, int(LockMode.EXCLUSIVE))))
    s.spawn(c2.write_range_locked(fds["c2"], 0, BLOCK_SIZE))
    locks = s.server.locks
    while not locks.waiting(fid, SCOPED):
        s.run(until=s.sim.now + 0.01)
    assert locks.waiting(fid, SCOPED) == [("c2", LockMode.EXCLUSIVE)]

    s.server.crash()
    assert locks.waiting(fid, SCOPED) == []
    s.run(until=s.sim.now + 1.0)
    s.server.restart()
    deadline = s.sim.now + 60.0
    while not locks.waiting(fid, SCOPED) and s.sim.now < deadline:
        s.run(until=s.sim.now + 0.1)
    s.run(until=s.sim.now + 5.0)
    assert locks.waiting(fid, SCOPED) == [("c2", LockMode.EXCLUSIVE)]
