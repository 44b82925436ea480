"""SAN fabric: routing, latency, fencing, dlock commands."""

import pytest

from repro.net.san import FencedError, SanFabric, SanUnreachableError
from repro.sim import RandomStreams, Simulator
from repro.storage import VirtualDisk
from repro.storage.dlock import DlockDeniedError


@pytest.fixture
def fabric():
    sim = Simulator()
    san = SanFabric(sim, RandomStreams(3))
    disk = VirtualDisk("d0", 1024)
    san.attach_device(disk)
    san.attach_initiator("c1")
    san.attach_initiator("c2")
    return sim, san, disk


def run(sim, gen):
    proc = sim.process(gen)
    proc.defuse()
    sim.run()
    if proc.exception is not None:
        raise proc.exception
    return proc.value


def test_write_then_read(fabric):
    sim, san, disk = fabric
    run(sim, san.write("c1", "d0", {3: "t1", 4: "t2"}))
    recs = run(sim, san.read("c2", "d0", 3, 2))
    assert [(r.lba, r.tag) for r in recs] == [(3, "t1"), (4, "t2")]


def test_write_returns_versions(fabric):
    sim, san, disk = fabric
    v1 = run(sim, san.write("c1", "d0", {3: "a"}))
    v2 = run(sim, san.write("c1", "d0", {3: "b"}))
    assert v2[3] == v1[3] + 1


def test_io_takes_time(fabric):
    sim, san, disk = fabric
    run(sim, san.write("c1", "d0", {0: "x"}))
    assert sim.now > 0


def test_byte_accounting(fabric):
    sim, san, disk = fabric
    run(sim, san.write("c1", "d0", {0: "x", 1: "y"}))
    run(sim, san.read("c1", "d0", 0, 2))
    assert san.bytes_written == 2 * 4096
    assert san.bytes_read == 2 * 4096


def test_unknown_device_keyerror(fabric):
    sim, san, disk = fabric
    with pytest.raises(KeyError):
        run(sim, san.read("c1", "nope", 0, 1))


def test_partition_blocks_io(fabric):
    sim, san, disk = fabric
    san.block_pair("c1", "d0")
    with pytest.raises(SanUnreachableError):
        run(sim, san.write("c1", "d0", {0: "x"}))
    # other initiator unaffected
    run(sim, san.write("c2", "d0", {0: "y"}))


def test_heal_restores_io(fabric):
    sim, san, disk = fabric
    san.block_pair("c1", "d0")
    san.heal_all()
    run(sim, san.write("c1", "d0", {0: "x"}))


def test_device_fence_denies(fabric):
    sim, san, disk = fabric
    disk.fence_table.fence("c1")
    with pytest.raises(FencedError):
        run(sim, san.write("c1", "d0", {0: "x"}))
    with pytest.raises(FencedError):
        run(sim, san.read("c1", "d0", 0, 1))


def test_fence_applied_mid_flight_catches_late_command(fabric):
    """Paper §6: a late command from a slow computer must hit the fence
    even if it was submitted before the fence existed."""
    sim, san, disk = fabric
    results = {}

    def writer():
        try:
            yield from san.write("c1", "d0", {0: "late"})
            results["wrote"] = True
        except FencedError:
            results["fenced"] = True

    def fencer():
        # fence lands while the write is in the fabric
        disk.fence_table.fence("c1", sim.now)
        yield sim.timeout(0)

    sim.process(writer())
    sim.process(fencer())
    sim.run()
    assert results == {"fenced": True}


def test_dlock_acquire_and_conflict(fabric):
    sim, san, disk = fabric
    run(sim, san.dlock_acquire("c1", "d0", 0, 10, ttl=5.0, device_now=0.0))
    with pytest.raises(DlockDeniedError):
        run(sim, san.dlock_acquire("c2", "d0", 5, 2, ttl=5.0, device_now=1.0))


def test_dlock_release_frees_range(fabric):
    sim, san, disk = fabric
    run(sim, san.dlock_acquire("c1", "d0", 0, 10, ttl=5.0, device_now=0.0))
    run(sim, san.dlock_release("c1", "d0", 0, 10, device_now=1.0))
    run(sim, san.dlock_acquire("c2", "d0", 0, 10, ttl=5.0, device_now=1.0))


def test_node_names_lists_members(fabric):
    sim, san, disk = fabric
    assert san.node_names == ["c1", "c2", "d0"]
