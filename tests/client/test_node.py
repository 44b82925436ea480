"""Client node behaviour against a real server (integration-lite)."""

import pytest

from repro.client import ClientDisconnectedError, ClientQuiescedError
from repro.locks import LockMode
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def test_create_open_write_read_close():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        tag = yield from c.write(fd, 0, BLOCK_SIZE)
        res = yield from c.read(fd, 0, BLOCK_SIZE)
        yield from c.close(fd)
        return (tag, res)
    tag, res = run_gen(s, app())
    assert res == [(0, tag)]


def test_open_missing_file_nacks():
    from repro.net import NackError
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        with pytest.raises(NackError):
            yield from c.open_file("/nope", "r")
        yield s.sim.timeout(0)
    run_gen(s, app())


def test_open_bad_mode():
    s = make_system(n_clients=1)
    c = s.client("c1")
    with pytest.raises(ValueError):
        c.open_file("/f", "rw").send(None)


def test_write_on_readonly_fd_rejected():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "r")
        with pytest.raises(PermissionError):
            yield from c.write(fd, 0, 10)
    run_gen(s, app())


def test_write_grows_file():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 3 * BLOCK_SIZE, BLOCK_SIZE)  # beyond EOF
        of = c.fds.get(fd)
        return of.extents.block_count
    blocks = run_gen(s, app())
    assert blocks >= 4


def test_read_fills_cache_then_hits():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "r")
        yield from c.read(fd, 0, BLOCK_SIZE)
        yield from c.read(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    assert c.cache.stats.hits >= 1


def test_flush_hardens_dirty_pages():
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        tag = yield from c.write(fd, 0, BLOCK_SIZE)
        n = yield from c.flush(fd)
        return (tag, n)
    tag, n = run_gen(s, app())
    assert n == 1
    disk = next(iter(s.disks.values()))
    assert any(e.tag == tag for e in disk.history if e.op == "write")


def test_writeback_daemon_flushes_eventually():
    s = make_system(n_clients=1, writeback_interval=2.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    s.run(until=10.0)
    assert c.cache.dirty_count == 0


def test_close_flushes():
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
        yield from c.close(fd)
    run_gen(s, app())
    assert c.cache.dirty_count == 0


def test_rewrite_racing_a_flush_is_not_lost():
    """A write that lands while the page's previous content is on its
    way to the SAN must stay dirty: the flush hardened the *old* tag, so
    marking the page clean would silently drop the acknowledged rewrite
    (audit invariant I2)."""
    from repro.analysis import ConsistencyAuditor
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        first = yield from c.write(fd, 0, BLOCK_SIZE)
        flusher = s.spawn(c.flush(fd))
        # Inside the SAN write's service time: the flush is in flight.
        yield s.sim.timeout(s.config.network.san_base_latency / 2)
        second = yield from c.write(fd, 0, BLOCK_SIZE)
        yield flusher
        assert c.cache.dirty_count == 1     # the rewrite still owes a flush
        yield from c.close(fd)              # ... which close pays
        return first, second
    first, second = run_gen(s, app())
    assert c.cache.dirty_count == 0
    flushed = [r.detail["tag"] for r in s.trace.select(kind="cache.flushed")]
    assert flushed == [first, second]
    disk = next(iter(s.disks.values()))
    assert [e.tag for e in disk.history if e.op == "write"][-1] == second
    report = ConsistencyAuditor(s).audit()
    assert report.lost_updates == [], report.summary()


def test_lock_cached_across_close():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        fid = c.fds.get(fd).file_id
        yield from c.close(fd)
        return fid
    fid = run_gen(s, app())
    # §3.1: lock retained after close, both client- and server-side
    assert c.locks.mode_of(fid) == LockMode.EXCLUSIVE
    assert s.server.locks.mode_of("c1", fid) == LockMode.EXCLUSIVE


def test_demand_downgrade_for_reader():
    """Writer holds X; a reader's open demands a downgrade to S —
    writer flushes and keeps clean pages."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def writer():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["tag"] = yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id

    def reader():
        yield s.sim.timeout(2.0)
        fd = yield from c2.open_file("/f", "r")
        out["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)

    s.spawn(writer())
    s.spawn(reader())
    s.run(until=30.0)
    assert out["read"] == [(0, out["tag"])]
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.SHARED
    assert s.server.locks.mode_of("c2", out["fid"]) == LockMode.SHARED
    # c1's pages survived the downgrade (clean)
    assert c1.cache.peek(out["fid"], 0) is not None


def test_demand_release_for_writer():
    """Second writer demands full release: holder flushes + invalidates."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def first():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["tag"] = yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id

    def second():
        yield s.sim.timeout(2.0)
        fd = yield from c2.open_file("/f", "w")
        out["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)

    s.spawn(first())
    s.spawn(second())
    s.run(until=30.0)
    assert out["read"] == [(0, out["tag"])]  # dirty data was flushed first
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.NONE
    assert c1.cache.peek(out["fid"], 0) is None  # invalidated


def test_reacquire_after_stale():
    """After lease expiry the client revalidates locks lazily."""
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")
    out = {}

    def setup():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        out["fd"] = fd
        out["tag"] = yield from c.write(fd, 0, BLOCK_SIZE)
    run_gen(s, setup())

    # Simulate lease loss + server steal, then heal.
    s.ctrl_partitions.isolate("c1")
    s.run(until=60.0)
    assert not c.connected
    s.ctrl_partitions.heal()
    s.run(until=100.0)
    assert c.connected  # probe keepalive reconnected

    def reread():
        res = yield from c.read(out["fd"], 0, BLOCK_SIZE)
        return res
    res = run_gen(s, reread())
    # data was flushed in phase 4 before expiry; reread comes from disk
    assert res == [(0, out["tag"])]


def test_quiesce_rejects_new_requests():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def setup():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        return fd
    fd = run_gen(s, setup())
    s.ctrl_partitions.isolate("c1")
    # run into phase 3 (suspect starts at 0.75 * 30 = 22.5 local)
    s.run(until=26.0)
    out = {}

    def op():
        try:
            yield from c.read(fd, 0, BLOCK_SIZE)
        except (ClientQuiescedError, ClientDisconnectedError) as exc:
            out["err"] = type(exc).__name__
    s.spawn(op())
    s.run(until=27.0)
    assert "err" in out
    assert c.ops_rejected >= 1


def test_file_stays_marked_until_its_last_compliance_ends():
    """A release demand that overtakes an unconfirmed downgrade: the
    downgrade's ACK (lost once, replayed to the retry) lands after the
    server executed the release, and writes SHARED into the table while
    the release is still unconfirmed.  Until both compliances are over
    the file must stay marked as being revoked: no operation may ride
    that entry and no oracle may take it for a usable lock."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1 = s.client("c1")
    out = {}

    def writer():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id
    run_gen(s, writer())
    fid, lc, sim = out["fid"], c1.lockclient, s.sim
    t0 = sim.now
    s.control_net.block("server", "c1")          # the downgrade's first ACK is lost
    s.spawn(lc._comply_demand(fid, LockMode.SHARED, "server"))
    s.run(until=t0 + 0.4)
    assert s.server.locks.mode_of("c1", fid) == LockMode.SHARED
    s.spawn(lc._comply_demand(fid, LockMode.EXCLUSIVE, "server"))
    s.run(until=t0 + 0.8)
    assert s.server.locks.mode_of("c1", fid) == LockMode.NONE
    # Let the downgrade's retry (one local second after its first try)
    # through, and only it.
    s.control_net.unblock("server", "c1")
    s.run(until=t0 + 1.2)
    s.control_net.block("server", "c1")
    assert c1.locks.mode_of(fid) == LockMode.SHARED   # the stale entry...
    assert fid in lc._revoking                        # ...is not usable
    s.control_net.unblock("server", "c1")
    s.run(until=t0 + 5.0)
    assert c1.locks.mode_of(fid) == LockMode.NONE
    assert fid not in lc._revoking
