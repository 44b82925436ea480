"""NFS attribute polling: no locks, bounded-staleness cache."""

import pytest

from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def test_basic_io_roundtrip():
    s = make_system(protocol="nfs", n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        tag = yield from c.write(fd, 0, BLOCK_SIZE)
        yield from c.close(fd)
        fd2 = yield from c.open_file("/f", "r")
        res = yield from c.read(fd2, 0, BLOCK_SIZE)
        return (tag, res)
    tag, res = run_gen(s, app())
    assert res == [(0, tag)]


def test_no_locks_taken():
    s = make_system(protocol="nfs", n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
        yield from c.close(fd)
    run_gen(s, app())
    assert s.server.locks.grants == 0


def test_stale_read_within_ttl():
    """Reader keeps serving its cache until the attribute TTL lapses —
    the incoherence window the paper cites (§5)."""
    s = make_system(protocol="nfs", n_clients=2, nfs_attr_ttl=5.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def writer_then_reader():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd1 = yield from c1.open_file("/f", "w")
        out["t1"] = yield from c1.write(fd1, 0, BLOCK_SIZE)
        yield from c1.close(fd1)
        # c2 reads and caches
        fd2 = yield from c2.open_file("/f", "r")
        out["r1"] = yield from c2.read(fd2, 0, BLOCK_SIZE)
        # c1 overwrites
        fd1 = yield from c1.open_file("/f", "w")
        out["t2"] = yield from c1.write(fd1, 0, BLOCK_SIZE)
        yield from c1.close(fd1)
        # within TTL: stale
        out["r2"] = yield from c2.read(fd2, 0, BLOCK_SIZE)
        # after TTL: poll revalidates
        yield s.sim.timeout(6.0)
        out["r3"] = yield from c2.read(fd2, 0, BLOCK_SIZE)
    run_gen(s, writer_then_reader())
    assert out["r1"] == [(0, out["t1"])]
    assert out["r2"] == [(0, out["t1"])]   # stale!
    assert out["r3"] == [(0, out["t2"])]   # revalidated
    assert c2.polls_sent >= 1


def test_poll_counter():
    s = make_system(protocol="nfs", n_clients=1, nfs_attr_ttl=1.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "r")
        for _ in range(5):
            yield s.sim.timeout(2.0)
            yield from c.read(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    assert c.polls_sent >= 4


@pytest.mark.parametrize("cut", ["fence", "san_partition"])
def test_a_failed_read_is_reported_like_any_clients(cut):
    """The polling client runs the Storage Tank client's data path, so a
    read the SAN refuses is the application's EIO (``ClientIOError``,
    counted and recorded), not a raw device exception.  Before the two
    shared one implementation this raised ``FencedIoError`` with
    ``app_errors == 0`` and no ``app.error`` record."""
    from repro.client import ClientIOError
    s = make_system(protocol="nfs", n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "r")
        if cut == "fence":
            for disk in s.disks.values():
                disk.fence_table.fence("c1", s.sim.now)
        else:
            s.san.isolate("c1")
        yield from c.read(fd, 0, BLOCK_SIZE)
    with pytest.raises(ClientIOError):
        run_gen(s, app())
    assert c.app_errors == 1
    [err] = s.trace.select(kind="app.error", node="c1")
    assert err.detail["tag"] is None
    assert s.trace.select(kind="app.read") == []


def test_write_acked_during_a_failing_flush_is_reported():
    """tests/analysis/test_consistency.py's case of the same name, on
    the polling client: the write acknowledged while ``flush_file`` was
    on the SAN is dropped with the file when the flush fails, and must
    be reported with it."""
    from repro.analysis import ConsistencyAuditor
    s = make_system(protocol="nfs", n_clients=1)
    c = s.client("c1")
    out = {}

    def app():
        yield from c.create("/f", size=2 * BLOCK_SIZE)
        out["fd"] = yield from c.open_file("/f", "w")
        yield from c.write(out["fd"], 0, BLOCK_SIZE)
    run_gen(s, app())
    fid = c.fds.get(out["fd"]).file_id

    def fence_then_write():
        yield s.sim.timeout(1e-6)           # the flush is on the SAN now
        for disk in s.disks.values():
            disk.fence_table.fence("c1", s.sim.now)
        out["late"] = yield from c.write(out["fd"], BLOCK_SIZE, BLOCK_SIZE)
    flush = s.spawn(c.flush_file(fid))
    run_gen(s, fence_then_write())
    s.sim.run_until_event(flush, hard_limit=600.0)
    report = ConsistencyAuditor(s).audit()
    assert report.lost_updates == []
    assert {v.detail["tag"] for v in report.stranded_reported} == {
        "c1:w1", out["late"]}
    assert c.app_errors == 2
    assert len(c.cache) == 0
