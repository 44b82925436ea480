"""Virtual disk: versioning, history, fencing, bounds."""

import pytest

from repro.storage import VirtualDisk
from repro.storage.disk import FencedIoError


@pytest.fixture
def disk():
    return VirtualDisk("d", n_blocks=100)


def test_pristine_block(disk):
    rec = disk.peek(0)
    assert rec.tag is None and rec.version == 0


def test_write_bumps_version(disk):
    v = disk.write("c1", 1.0, {5: "a"})
    assert v == {5: 1}
    v = disk.write("c2", 2.0, {5: "b"})
    assert v == {5: 2}
    assert disk.peek(5).tag == "b"
    assert disk.peek(5).writer == "c2"


def test_read_returns_current_content(disk):
    disk.write("c1", 1.0, {5: "a", 6: "b"})
    recs = disk.read("c2", 2.0, 5, 2)
    assert [(r.lba, r.tag, r.version) for r in recs] == [(5, "a", 1), (6, "b", 1)]


def test_out_of_bounds_rejected(disk):
    with pytest.raises(IndexError):
        disk.write("c1", 1.0, {100: "x"})
    with pytest.raises(IndexError):
        disk.read("c1", 1.0, 99, 2)
    with pytest.raises(IndexError):
        disk.read("c1", 1.0, -1, 1)


def test_fence_denies_and_records(disk):
    disk.fence_table.fence("c1", 1.0)
    with pytest.raises(FencedIoError):
        disk.write("c1", 2.0, {0: "x"})
    with pytest.raises(FencedIoError):
        disk.read("c1", 2.0, 0, 1)
    assert disk.denied == 2
    denied = [e for e in disk.history if e.op.startswith("denied")]
    assert len(denied) == 2


def test_unfence_restores(disk):
    disk.fence_table.fence("c1", 1.0)
    disk.fence_table.unfence("c1", 2.0)
    disk.write("c1", 3.0, {0: "x"})
    assert disk.peek(0).tag == "x"


def test_fence_is_per_initiator(disk):
    disk.fence_table.fence("c1", 1.0)
    disk.write("c2", 2.0, {0: "y"})
    assert disk.peek(0).tag == "y"


def test_history_records_writes_and_reads(disk):
    disk.write("c1", 1.0, {0: "a"})
    disk.read("c2", 2.0, 0, 1)
    ops = [(e.op, e.initiator) for e in disk.history]
    assert ops == [("write", "c1"), ("read", "c2")]


def test_version_at_time(disk):
    disk.write("c1", 1.0, {0: "a"})
    disk.write("c1", 5.0, {0: "b"})
    assert disk.version_at(0, 0.5) == 0
    assert disk.version_at(0, 1.0) == 1
    assert disk.version_at(0, 9.0) == 2


def test_writes_by_initiator(disk):
    disk.write("c1", 1.0, {0: "a"})
    disk.write("c2", 2.0, {1: "b"})
    assert len(disk.writes_by("c1")) == 1
    assert disk.writes_by("c1")[0].tag == "a"


def test_empty_write_is_noop(disk):
    assert disk.write("c1", 1.0, {}) == {}
    assert disk.writes == 0


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        VirtualDisk("d", 0)
