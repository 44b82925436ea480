"""The cluster ownership gate on the intent path.

Every lock request is a ``LOCK_INTENT`` or a ``LOCK_BATCH`` sub-op, so the
gate that silences a server whose map lease lapsed (the map-lease form
of "at most one holder") must read intents and look inside batches: a
batch is refused whole when any *granting* sub-op would be, while an
advisory ``close`` for a slot that moved only fails its own result.
"""

from repro.cluster.shardmap import slot_of_path
from repro.core import ClusterConfig
from repro.locks import SCOPED, LockMode
from repro.net.message import (Batch, Close, Downgrade, LockAcquire,
                               LockRelease, MsgKind, NackError, OpenIntent,
                               RangeAcquire, RangeRelease)
from repro.storage import BLOCK_SIZE
from tests.conftest import make_system, run_gen


def _path_owned_by(system, server, stem="/gate/f"):
    m = system.coordinator.map
    return next(f"{stem}{i}" for i in range(2000)
                if m.owner_of_path(f"{stem}{i}") == server)


def _refusal(system, client, server, kind, payload):
    """Error string of the NACK a raw request draws (None if ACKed)."""
    def probe():
        try:
            yield from client.endpoint.request(server, kind, payload)
        except NackError as exc:
            return exc.nack.payload.get("error")
        return None
    return run_gen(system, probe())


def test_lapsed_map_lease_refuses_every_granting_intent():
    s = make_system(
        n_servers=2,
        cluster=ClusterConfig(ping_interval=0.5,
                              ping_timeout=0.25, ping_retries=2,
                              map_lease=1.0, takeover_grace=2.0))
    c1 = s.client("c1")
    path = _path_owned_by(s, "server2")
    fid = run_gen(s, c1.create(path, size=4 * BLOCK_SIZE))

    # server2 loses the coordinator (and only the coordinator): past
    # map_lease it may have been declared dead, so it must not grant.
    s.ctrl_partitions.isolate("server2", [s.coordinator.name])
    s.run(until=s.sim.now + 1.3)
    server2 = s.server_node("server2")
    assert server2.cluster.map_is_stale()

    open_op = OpenIntent(path, mode="w")
    range_op = RangeAcquire(fid, 0, BLOCK_SIZE, int(LockMode.EXCLUSIVE))
    for kind, payload in ((MsgKind.LOCK_INTENT, open_op),
                          (MsgKind.LOCK_BATCH, Batch((open_op,))),
                          (MsgKind.LOCK_BATCH, Batch((range_op,)))):
        assert _refusal(s, c1, "server2", kind, payload) == "map_stale"
    assert server2.locks.mode_of("c1", fid) == LockMode.NONE
    assert not server2.locks.holdings("c1", fid, SCOPED)

    # Giving something back is never refused for staleness.
    release = RangeRelease(fid)
    assert _refusal(s, c1, "server2", MsgKind.LOCK_INTENT, release) is None
    assert _refusal(s, c1, "server2", MsgKind.LOCK_BATCH,
                    Batch((release,))) is None


def _stale_server2_with_a_lock_of_c1():
    """A two-server cluster where ``c1`` holds an EXCLUSIVE lock on a
    file of ``server2``, and ``server2``'s map lease has lapsed."""
    s = make_system(
        n_servers=2,
        cluster=ClusterConfig(ping_interval=0.5,
                              ping_timeout=0.25, ping_retries=2,
                              map_lease=1.0, takeover_grace=2.0))
    c1 = s.client("c1")
    path = _path_owned_by(s, "server2")

    def setup():
        fid = yield from c1.create(path, size=BLOCK_SIZE)
        yield from c1.open_file(path, "w")
        return fid
    fid = run_gen(s, setup())
    s.ctrl_partitions.isolate("server2", [s.coordinator.name])
    s.run(until=s.sim.now + 1.3)
    server2 = s.server_node("server2")
    assert server2.cluster.map_is_stale()
    assert server2.locks.mode_of("c1", fid) == LockMode.EXCLUSIVE
    return s, c1, server2, fid


def test_lapsed_map_lease_refuses_a_lock_acquire_intent():
    s, c1, server2, fid = _stale_server2_with_a_lock_of_c1()
    c2 = s.client("c2")
    acquire = LockAcquire(fid, int(LockMode.SHARED))
    for client in (c1, c2):
        assert _refusal(s, client, "server2", MsgKind.LOCK_INTENT,
                        acquire) == "map_stale"
        assert _refusal(s, client, "server2", MsgKind.LOCK_BATCH,
                        Batch((acquire,))) == "map_stale"
    assert server2.locks.mode_of("c2", fid) == LockMode.NONE


def test_lapsed_map_lease_admits_release_and_downgrade_intents():
    s, c1, server2, fid = _stale_server2_with_a_lock_of_c1()
    assert _refusal(s, c1, "server2", MsgKind.LOCK_INTENT,
                    Downgrade(fid, int(LockMode.SHARED))) is None
    assert server2.locks.mode_of("c1", fid) == LockMode.SHARED
    assert _refusal(s, c1, "server2", MsgKind.LOCK_BATCH,
                    Batch((LockRelease(fid),))) is None
    assert server2.locks.mode_of("c1", fid) == LockMode.NONE
    assert server2.rejected_releases == 0


def test_batch_is_gated_on_the_slots_of_its_granting_subops():
    s = make_system(n_servers=2,
                    cluster=ClusterConfig(push_to_clients=False))
    c1 = s.client("c1")
    mine = _path_owned_by(s, "server1")
    moved = _path_owned_by(s, "server1", stem="/gate/g")
    assert slot_of_path(mine) != slot_of_path(moved)

    def setup():
        yield from c1.create(mine, size=BLOCK_SIZE)
        moved_fid = yield from c1.create(moved, size=BLOCK_SIZE)
        yield from s.coordinator.move_slots([slot_of_path(moved)], "server2")
        return moved_fid
    moved_fid = run_gen(s, setup())
    server1 = s.server_node("server1")

    # A granting sub-op on the slot that moved refuses the whole batch,
    # before anything in it runs.
    ops = (OpenIntent(mine, mode="r"),
           RangeAcquire(moved_fid, 0, BLOCK_SIZE, int(LockMode.SHARED)))
    assert _refusal(s, c1, "server1", MsgKind.LOCK_BATCH,
                    Batch(ops)) == "wrong_owner"
    assert not any(g.client == "c1"
                   for grants in server1.locks._grants.values()
                   for g in grants)

    # A deferred close for the moved slot is advisory: it fails alone
    # and the open it piggybacks on still succeeds.
    def batch():
        reply = yield from c1.endpoint.request(
            "server1", MsgKind.LOCK_BATCH, Batch((Close(moved_fid), ops[0])))
        return reply.payload["results"]
    closed, opened = run_gen(s, batch())
    assert (closed["ok"], closed["error"]) == (False, "wrong_owner")
    assert opened["ok"] and opened["lock"] == int(LockMode.SHARED)
    assert moved_fid not in server1.closes_by_file
