"""Multi-disk installations: striping, per-disk fencing, SAN cuts."""

import pytest

from repro.analysis import ConsistencyAuditor
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def test_allocation_spreads_across_disks():
    s = make_system(n_clients=1, n_disks=3)
    c = s.client("c1")

    def app():
        for i in range(6):
            yield from c.create(f"/f{i}", size=4 * BLOCK_SIZE)
    run_gen(s, app())
    devices_used = {e.device
                    for fid in list(s.server.metadata._inodes)
                    for e in s.server.metadata.inode(fid).extents.extents}
    assert devices_used == {"disk1", "disk2", "disk3"}


def test_file_spanning_disks_roundtrips():
    s = make_system(n_clients=1, n_disks=2, disk_blocks=8)
    c = s.client("c1")

    def app():
        # 12 blocks cannot fit on one 8-block disk: the extent map spans.
        yield from c.create("/big", size=12 * BLOCK_SIZE)
        fd = yield from c.open_file("/big", "w")
        tag = yield from c.write(fd, 0, 12 * BLOCK_SIZE)
        yield from c.flush(fd)
        c.cache.invalidate_all()
        res = yield from c.read(fd, 0, 12 * BLOCK_SIZE)
        return (tag, res)
    tag, res = run_gen(s, app())
    assert all(t == tag for _lb, t in res)
    # Both disks actually hold pieces.
    assert all(d.writes > 0 for d in s.disks.values())


def test_fence_covers_every_disk():
    s = make_system(n_clients=1, n_disks=3)
    s.server.lock_service.fence_client("c1")
    for d in s.disks.values():
        assert d.fence_table.is_fenced("c1")
    s.server.lock_service.unfence_client("c1")
    for d in s.disks.values():
        assert not d.fence_table.is_fenced("c1")


def test_partial_san_cut_fails_only_affected_blocks():
    """Losing the path to one disk EIOs only the file regions on it."""
    s = make_system(n_clients=1, n_disks=2, disk_blocks=8,
                    writeback_interval=1000.0)
    c = s.client("c1")
    out = {}

    def app():
        yield from c.create("/big", size=12 * BLOCK_SIZE)
        fd = yield from c.open_file("/big", "w")
        yield from c.write(fd, 0, 12 * BLOCK_SIZE)
        out["fd"] = fd
    run_gen(s, app())
    s.san.block_pair("c1", "disk2")

    def flush():
        n = yield from c.flush(out["fd"])
        out["flushed"] = n
    run_gen(s, flush())
    # disk1's pages hardened; disk2's were error-reported.
    assert 0 < out["flushed"] < 12
    assert c.app_errors > 0
    report = ConsistencyAuditor(s).audit()
    assert report.lost_updates == []  # reported, not silent
