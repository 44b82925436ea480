"""Consistency auditor against engineered traces."""

import pytest

from repro.analysis import ConsistencyAuditor
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def test_clean_run_is_safe():
    s = make_system(n_clients=2)
    c1, c2 = s.client("c1"), s.client("c2")

    def writer():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        yield from c1.close(fd)

    def reader():
        yield s.sim.timeout(2.0)
        fd = yield from c2.open_file("/f", "r")
        yield from c2.read(fd, 0, BLOCK_SIZE)
    s.spawn(writer())
    s.spawn(reader())
    s.run(until=20.0)
    report = ConsistencyAuditor(s).audit()
    assert report.safe
    assert report.writes_acked >= 1
    assert report.reads_checked >= 1
    assert report.summary()["lost_updates_silent"] == 0


def test_detects_silent_lost_update():
    """A write acked into cache and silently discarded must be flagged."""
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    # Simulate a buggy client dropping dirty data without reporting.
    c.cache._clear()
    s.run(until=5.0)
    report = ConsistencyAuditor(s).audit()
    assert len(report.lost_updates) == 1


def test_reported_loss_is_stranded_not_silent():
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    # Fence the client, then let a flush attempt fail and report.
    for disk in s.disks.values():
        disk.fence_table.fence("c1", s.sim.now)

    def try_flush():
        yield from c.flush()
    run_gen(s, try_flush())
    report = ConsistencyAuditor(s).audit()
    assert report.lost_updates == []
    assert len(report.stranded_reported) == 1


def test_write_acked_during_a_failing_flush_is_reported():
    """A write acknowledged while a flush of the same file is in flight
    sits outside that flush's snapshot.  When the flush fails the file
    is dropped from the cache, and the late page must be reported with
    it, not lost silently (it was, before PR 17)."""
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")
    out = {}

    def app():
        yield from c.create("/f", size=2 * BLOCK_SIZE)
        out["fd"] = yield from c.open_file("/f", "w")
        yield from c.write(out["fd"], 0, BLOCK_SIZE)
    run_gen(s, app())

    def fence_then_write():
        yield s.sim.timeout(1e-6)           # the flush is on the SAN now
        for disk in s.disks.values():
            disk.fence_table.fence("c1", s.sim.now)
        out["late"] = yield from c.write(out["fd"], BLOCK_SIZE, BLOCK_SIZE)
    flush = s.spawn(c.flush())
    run_gen(s, fence_then_write())
    s.sim.run_until_event(flush, hard_limit=600.0)
    report = ConsistencyAuditor(s).audit()
    assert report.lost_updates == []
    assert {v.detail["tag"] for v in report.stranded_reported} == {
        "c1:w1", out["late"]}
    assert c.app_errors == 2
    assert len(c.cache) == 0


def test_detects_unsynchronized_write():
    """A SAN write without a covering X lock is an I4 violation."""
    s = make_system(n_clients=1)
    c = s.client("c1")
    out = {}

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        out["fid"] = c.fds.get(fd).file_id
        yield from c.write(fd, 0, BLOCK_SIZE)
        yield from c.flush(fd)
    run_gen(s, app())
    # Steal the lock, then write behind the server's back.
    s.server.locks.steal_all("c1")

    def rogue():
        dev, lba = s.server.metadata.inode(out["fid"]).extents.resolve(0)
        yield from s.san.write("c1", dev, {lba: "rogue-tag"})
    run_gen(s, rogue())
    report = ConsistencyAuditor(s).audit()
    assert len(report.unsynchronized_writes) == 1
    assert report.unsynchronized_writes[0].detail["tag"] == "rogue-tag"


def test_detects_stale_read():
    """Serving cached data after another client hardened newer data."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def setup():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "r")
        out["fd1"] = fd
        out["fid"] = c1.fds.get(fd).file_id
        yield from c1.read(fd, 0, BLOCK_SIZE)  # caches pristine block
    run_gen(s, setup())

    # c2 writes and hardens new data through proper channels... except we
    # bypass the demand by stealing c1's lock silently (simulating the
    # naive-steal hazard) so c1's cache stays populated.
    s.server.locks.steal_all("c1")

    def writer():
        fd = yield from c2.open_file("/f", "w")
        out["tag2"] = yield from c2.write(fd, 0, BLOCK_SIZE)
        yield from c2.flush(fd)
    run_gen(s, writer())

    def stale_reader():
        res = yield from c1.read(out["fd1"], 0, BLOCK_SIZE)
        out["stale"] = res
    run_gen(s, stale_reader())
    report = ConsistencyAuditor(s).audit()
    assert len(report.stale_reads) >= 1
    assert report.stale_reads[0].client == "c1"


def test_own_writeback_read_not_stale():
    """Reading your own dirty data before flush is legitimate."""
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
        yield from c.read(fd, 0, BLOCK_SIZE)  # own dirty page
        yield from c.flush(fd)
        yield from c.read(fd, 0, BLOCK_SIZE)  # own clean page
    run_gen(s, app())
    report = ConsistencyAuditor(s).audit()
    assert report.stale_reads == []
    assert report.safe
