"""Client rerouting on WRONG_OWNER: NACK → map refetch → retry.

With map pushes disabled the client only learns about a slot move from
the old owner's refusal (the Fig. 5 discipline applied to routing): it
must refetch the map from the coordinator, migrate its per-server
bookkeeping, and retry at the new owner — transparently to the caller.
"""

from repro.cluster.shardmap import slot_of_path
from repro.core import ClusterConfig
from repro.storage import BLOCK_SIZE
from tests.conftest import make_system, run_gen


def test_wrong_owner_nack_triggers_map_refetch_and_retry():
    s = make_system(n_servers=2,
                    cluster=ClusterConfig(push_to_clients=False))
    c1 = s.client("c1")
    path = next(f"/move/f{i}" for i in range(2000)
                if s.coordinator.map.owner_of_path(f"/move/f{i}")
                == "server1")

    def app():
        yield from c1.create(path, size=BLOCK_SIZE)
        fd = yield from c1.open_file(path, "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        yield from c1.close(fd)
        # Administratively move the slot while the client's map is stale.
        yield from s.coordinator.move_slots([slot_of_path(path)], "server2")
        return (yield from c1.getattr(path))
    attrs = run_gen(s, app())

    assert attrs is not None
    assert s.coordinator.map.owner_of_path(path) == "server2"
    # The stale client was refused by server1, refetched the map and
    # retried at server2 — all inside the one getattr call.
    assert c1.routing.rerouted_ops >= 1
    assert c1.shard_map.epoch == s.coordinator.map.epoch
    assert c1.server_for_path(path) == "server2"
    assert s.server_node("server1").cluster.wrong_owner_nacks >= 1


def test_map_migration_moves_file_bookkeeping():
    s = make_system(n_servers=2,
                    cluster=ClusterConfig(push_to_clients=False))
    c1 = s.client("c1")
    path = next(f"/move/g{i}" for i in range(2000)
                if s.coordinator.map.owner_of_path(f"/move/g{i}")
                == "server1")

    def app():
        fid = yield from c1.create(path, size=BLOCK_SIZE)
        yield from s.coordinator.move_slots([slot_of_path(path)], "server2")
        yield from c1.getattr(path)  # forces the reroute + map refresh
        return fid
    fid = run_gen(s, app())

    assert c1.routing.shard_migrations >= 1
    assert c1.server_for_file(fid) == "server2"
