"""Virtual disk: versioning, history, fencing, bounds."""

import gc
import random

import pytest

from repro.storage import IoEvent, VirtualDisk
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


def test_history_matches_a_reference_list_over_random_io(disk):
    """The columnar history reads back exactly the events a plain list
    of IoEvent-s would hold, in order, with reads interleaved."""
    rng = random.Random(3)
    reference = []
    versions = {}
    fenced = set()
    for step in range(400):
        who = rng.choice(["c1", "c2", "c3"])
        t = step * 0.25
        roll = rng.random()
        if roll < 0.1:
            if who in fenced:
                disk.fence_table.unfence(who, t)
                fenced.discard(who)
            else:
                disk.fence_table.fence(who, t)
                fenced.add(who)
        elif roll < 0.55:
            tags = {lba: f"{who}-{step}-{lba}"
                    for lba in rng.sample(range(12), rng.randint(1, 4))}
            if who in fenced:
                with pytest.raises(FencedIoError):
                    disk.write(who, t, tags)
                reference += [IoEvent(t, "denied_write", who, lba, tags[lba],
                                      -1) for lba in sorted(tags)]
            else:
                disk.write(who, t, tags)
                for lba in sorted(tags):
                    versions[lba] = versions.get(lba, 0) + 1
                    reference.append(IoEvent(t, "write", who, lba, tags[lba],
                                             versions[lba]))
        else:
            lba, count = rng.randint(0, 9), rng.randint(1, 3)
            if who in fenced:
                with pytest.raises(FencedIoError):
                    disk.read(who, t, lba, count)
                reference.append(IoEvent(t, "denied_read", who, lba, None, -1))
            else:
                disk.read(who, t, lba, count)
                for b in range(lba, lba + count):
                    tag = disk.peek(b).tag
                    reference.append(IoEvent(t, "read", who, b, tag,
                                             versions.get(b, 0)))
        if step % 97 == 0:
            assert list(disk.history) == reference   # read mid-way, then extend
    assert len(disk.history) == len(reference)
    assert list(disk.history) == reference
    assert all(a is b for a, b in zip(disk.history, disk.history))
    assert disk.version_at(3, 1e9) == versions.get(3, 0)
    assert disk.writes_by("c2") == [e for e in reference
                                    if e.op == "write" and e.initiator == "c2"]


def test_history_adds_no_gc_tracked_object_per_io(disk):
    disk.write("c1", 0.0, {0: "warm"})
    disk.read("c1", 0.0, 0, 1)
    gc.collect()
    before = len(gc.get_objects())
    for i in range(2_000):
        disk.write("c1", float(i), {i % 50: "t", (i + 1) % 50: "u"})
        disk.read("c2", float(i), i % 50, 2)
    assert len(gc.get_objects()) - before < 50
    assert len(disk.history) == 2 + 2_000 * 4
