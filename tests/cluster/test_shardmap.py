"""Shard-map unit tests: routing compatibility and wire format."""

import pytest

from repro.cluster.shardmap import N_SLOTS, ShardMap, slot_of_path
from repro.sim.rng import _stable_hash


def test_initial_map_matches_static_hash():
    # slots[i] = servers[i % n] and n | 60 makes (h % 60) % n == h % n:
    # the epoch-1 map must route exactly like the historical static hash.
    for n in (1, 2, 3, 4):
        names = tuple(f"server{i + 1}" for i in range(n))
        m = ShardMap.initial(names)
        for i in range(200):
            path = f"/dir/file{i}"
            assert m.owner_of_path(path) == names[_stable_hash(path) % n]


def test_slot_of_path_is_ring_position():
    for path in ("/a", "/a/b", "/deep/ly/nested/name"):
        assert slot_of_path(path) == _stable_hash(path) % N_SLOTS
        assert ShardMap.initial(("s1", "s2")).owner_of_slot(
            slot_of_path(path)) == ShardMap.initial(
                ("s1", "s2")).owner_of_path(path)


def test_reassign_bumps_epoch_and_moves_slots():
    m = ShardMap.initial(("server1", "server2"))
    moved = m.slots_of("server2")
    m2 = m.reassign(moved, "server1")
    assert m2.epoch == m.epoch + 1
    assert m2.slots_of("server2") == ()
    assert m2.owners() == ("server1",)
    # the original map is immutable
    assert m.slots_of("server2") == moved


def test_payload_roundtrip():
    m = ShardMap.initial(("server1", "server2", "server3"))
    m2 = m.reassign(m.slots_of("server3"), "server1")
    assert ShardMap.from_payload(m2.to_payload()) == m2


def test_initial_map_requires_servers():
    with pytest.raises(ValueError):
        ShardMap.initial(())
