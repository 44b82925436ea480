"""Byte-range locking end to end: sub-file sharing with safety."""

import pytest

from repro.analysis import ConsistencyAuditor
from repro.locks import SCOPED, LockMode
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _setup_shared_file(s, n_blocks=16):
    c1 = s.client("c1")
    out = {}

    def app():
        yield from c1.create("/log", size=n_blocks * BLOCK_SIZE)
        # Open without whole-file write intent on both clients ('r' takes
        # a SHARED file lock, compatible across clients; the range locks
        # carry the write synchronization).
        out["fd1"] = yield from c1.open_file("/log", "r")
        out["fid"] = c1.fds.get(out["fd1"]).file_id
    run_gen(s, app())
    c2 = s.client("c2")

    def app2():
        out["fd2"] = yield from c2.open_file("/log", "r")
    run_gen(s, app2())
    return out


def test_disjoint_ranges_write_concurrently():
    s = make_system(n_clients=2)
    out = _setup_shared_file(s)
    c1, c2 = s.client("c1"), s.client("c2")
    done = {}

    def w1():
        done["t1"] = yield from c1.write_range_locked(out["fd1"], 0,
                                                      4 * BLOCK_SIZE)
        done["at1"] = s.sim.now

    def w2():
        done["t2"] = yield from c2.write_range_locked(out["fd2"],
                                                      8 * BLOCK_SIZE,
                                                      4 * BLOCK_SIZE)
        done["at2"] = s.sim.now
    s.spawn(w1())
    s.spawn(w2())
    s.run(until=10.0)
    assert "t1" in done and "t2" in done
    # Concurrent: neither waited for the other (well under a second each).
    assert done["at1"] < 1.0 and done["at2"] < 1.0
    report = ConsistencyAuditor(s).audit()
    assert report.unsynchronized_writes == []


def test_overlapping_ranges_serialize():
    s = make_system(n_clients=2)
    out = _setup_shared_file(s)
    c1, c2 = s.client("c1"), s.client("c2")
    order = []

    def w(client, fd, name, hold=0.0):
        def gen():
            # Acquire the same range; the second writer queues.
            tag = yield from client.write_range_locked(fd, 0, 4 * BLOCK_SIZE)
            order.append((s.sim.now, name, tag))
        return gen()
    s.spawn(w(c1, out["fd1"], "c1"))
    s.spawn(w(c2, out["fd2"], "c2"))
    s.run(until=20.0)
    assert len(order) == 2
    # Final disk state is exactly the later writer's tag (no interleave).
    disk = next(iter(s.disks.values()))
    fid = out["fid"]
    ino = s.server.metadata.inode(fid)
    dev, lba = ino.extents.resolve(0)
    assert s.disks[dev].peek(lba).tag == order[-1][2]
    report = ConsistencyAuditor(s).audit()
    assert report.unsynchronized_writes == []


def test_range_read_sees_range_write():
    s = make_system(n_clients=2)
    out = _setup_shared_file(s)
    c1, c2 = s.client("c1"), s.client("c2")
    res = {}

    def writer():
        res["tag"] = yield from c1.write_range_locked(out["fd1"],
                                                      2 * BLOCK_SIZE,
                                                      2 * BLOCK_SIZE)

    def reader():
        yield s.sim.timeout(1.0)
        res["read"] = yield from c2.read_range_locked(out["fd2"],
                                                      2 * BLOCK_SIZE,
                                                      2 * BLOCK_SIZE)
    s.spawn(writer())
    s.spawn(reader())
    s.run(until=10.0)
    assert all(tag == res["tag"] for _lb, tag in res["read"])


def test_stolen_lease_frees_range_locks():
    """A holder that partitions mid-range-hold frees its ranges at the
    lease steal, unblocking the waiter."""
    s = make_system(n_clients=2)
    out = _setup_shared_file(s)
    c1, c2 = s.client("c1"), s.client("c2")
    from repro.net.message import MsgKind, RangeAcquire
    res = {}

    def holder():
        # Take the range directly and never release (simulates dying
        # mid-operation while isolated).
        yield from c1.endpoint.request(
            "server", MsgKind.LOCK_INTENT,
            RangeAcquire(out["fid"], 0, 4 * BLOCK_SIZE,
                         int(LockMode.EXCLUSIVE)))
        s.control_net.isolate("c1")

    def waiter():
        yield s.sim.timeout(2.0)
        res["tag"] = yield from c2.write_range_locked(out["fd2"], 0,
                                                      4 * BLOCK_SIZE)
        res["at"] = s.sim.now
    s.spawn(holder())
    s.spawn(waiter())
    s.run(until=120.0)
    assert res.get("tag") is not None
    # Freed by the lease steal: after tau(1+eps) + detection, not instantly.
    wait = s.config.lease.tau * (1 + s.config.lease.epsilon)
    assert res["at"] > wait * 0.9
    assert any(g.op == "steal" and g.kind == SCOPED
               for g in s.server.locks.history)


def test_range_locked_writes_pass_audit_without_file_lock():
    """The audit accepts range-covered writes (no whole-file X needed)."""
    s = make_system(n_clients=2)
    out = _setup_shared_file(s)
    c1 = s.client("c1")

    def app():
        yield from c1.write_range_locked(out["fd1"], 0, BLOCK_SIZE)
    run_gen(s, app())
    report = ConsistencyAuditor(s).audit()
    assert report.unsynchronized_writes == []
    assert report.disk_writes_checked >= 1
