"""Server failure recovery via client-driven lock reassertion (§6)."""

import pytest

from repro.locks import LockMode
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
    assert s.server.recovery.in_recovery


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
    grace = s.server.config.recovery_grace
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
    from repro.server.recovery import LOCK_REASSERT

    def impostor():
        yield from s.client("c2").endpoint.request(
            "server", LOCK_REASSERT,
            {"file_id": out["fid"], "mode": int(LockMode.EXCLUSIVE)})
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
    """``__epoch__`` rides every ACK by construction, however the
    handler was registered: a ``LOCK_REASSERT`` ACK (RecoveryManager
    registers it on the raw endpoint) and a deferred transaction's
    receipt ACK, pending re-ACKs and final."""
    from repro.net import MsgKind, ReplyObserver

    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = _holder(s, c1)
    s.server.crash()
    s.run(until=s.sim.now + 1.0)
    s.server.restart()
    epoch = s.server.recovery.epoch

    reply = run_gen(s, c1.endpoint.request(
        "server", MsgKind.LOCK_REASSERT,
        {"file_id": out["fid"], "mode": int(LockMode.EXCLUSIVE)}))
    assert reply.payload["__epoch__"] == epoch

    seen = []

    class Probe(ReplyObserver):
        def on_reply(self, reply, renewal_time):
            if reply.kind == MsgKind.ACK:
                seen.append((reply.payload, renewal_time))
    c2.endpoint.observers.append(Probe())
    # A fresh acquisition inside the grace window parks as a deferred
    # transaction until the window closes.
    run_gen(s, c2.open_file("/f", "r"))
    receipts = [p for p, _t in seen if p.get("__pending__")]
    finals = [p for p, t in seen if t is None]
    assert len(receipts) >= 2 and len(finals) == 1
    assert all(p.get("__epoch__") == epoch for p, _t in seen)
