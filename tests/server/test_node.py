"""Server transactions, demand loops, steal-and-fence."""

import pytest

from repro.locks import LockMode
from repro.net.message import MsgKind
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def test_create_rejects_duplicate():
    from repro.net import NackError
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f")
        with pytest.raises(NackError):
            yield from c.create("/f")
    run_gen(s, app())


def test_getattr_by_path_and_missing():
    from repro.net import NackError
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        attrs = yield from c.getattr("/f")
        assert attrs.size == BLOCK_SIZE
        with pytest.raises(NackError):
            yield from c.getattr("/missing")
    run_gen(s, app())


def test_transactions_counted():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f")
        yield from c.getattr("/f")
    run_gen(s, app())
    assert s.server.transactions >= 2


def test_server_ships_no_data_in_direct_mode():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=4 * BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, 4 * BLOCK_SIZE)
        yield from c.close(fd)
        yield from c.read(fd, 0, BLOCK_SIZE) if False else iter(())
    s.spawn(app())
    s.run(until=10.0)
    assert s.server.data_bytes_served == 0
    assert s.san.bytes_written > 0


def test_server_marshalled_data_path():
    s = make_system(n_clients=1, data_path="server")
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        tag = yield from c.write(fd, 0, BLOCK_SIZE)
        yield from c.flush(fd)
        c.cache.invalidate_all()
        res = yield from c.read(fd, 0, BLOCK_SIZE)
        return (tag, res)
    tag, res = run_gen(s, app())
    assert res == [(0, tag)]
    assert s.server.data_bytes_served == 2 * BLOCK_SIZE  # one write + one read


def test_steal_client_fences_and_frees_locks():
    s = make_system(n_clients=2)
    c1 = s.client("c1")
    out = {}

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["fid"] = c1.fds.get(fd).file_id
    run_gen(s, app())
    s.server.lock_service.steal_client("c1")
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.NONE
    assert "c1" in s.server.fenced_clients
    for disk in s.disks.values():
        assert disk.fence_table.is_fenced("c1")


def test_unfence_on_rejoin():
    s = make_system(n_clients=2)
    c1 = s.client("c1")

    def setup():
        yield from c1.create("/f", size=BLOCK_SIZE)
        yield from c1.open_file("/f", "w")
    run_gen(s, setup())
    s.server.lock_service.steal_client("c1")
    assert "c1" in s.server.fenced_clients

    # Rejoining alone is not enough: the client has not observed its own
    # lapse, so it may still believe its stale locks — the fence holds
    # until the rejoin RPC carries a lapse attestation (§6).
    def rejoin():
        yield from c1.getattr("/f")
    run_gen(s, rejoin())
    assert "c1" in s.server.fenced_clients

    # Once the client goes through phase 4 (discards cache and locks),
    # its next RPC attests the lapse and the fence lifts.
    c1.force_lease_expiry()
    run_gen(s, rejoin())
    assert "c1" not in s.server.fenced_clients
    for disk in s.disks.values():
        assert not disk.fence_table.is_fenced("c1")


def test_release_from_non_holder_is_rejected():
    """A replayed/forged LOCK_RELEASE must not forfeit the honest
    holder's lock: the server validates msg.src against the lock table
    before honoring it (the msg.src-trust asymmetry fix)."""
    s = make_system(n_clients=2)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def setup():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["fid"] = c1.fds.get(fd).file_id
    run_gen(s, setup())
    fid = out["fid"]
    held = s.server.locks.mode_of("c1", fid)
    assert held != LockMode.NONE

    def forge_release():
        reply = yield from c2.endpoint.request(
            "server", MsgKind.LOCK_RELEASE, {"file_id": fid})
        return reply
    reply = run_gen(s, forge_release())
    assert reply.payload.get("status") == "not_holder"
    assert s.server.rejected_releases == 1
    # The honest holder kept its lock.
    assert s.server.locks.mode_of("c1", fid) == held


def test_downgrade_from_non_holder_is_rejected():
    s = make_system(n_clients=2)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def setup():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["fid"] = c1.fds.get(fd).file_id
    run_gen(s, setup())
    fid = out["fid"]

    def forge_downgrade():
        reply = yield from c2.endpoint.request(
            "server", MsgKind.LOCK_DOWNGRADE,
            {"file_id": fid, "mode": int(LockMode.SHARED)})
        return reply
    reply = run_gen(s, forge_downgrade())
    assert reply.payload.get("status") == "not_holder"
    assert s.server.rejected_releases == 1
    assert s.server.locks.mode_of("c1", fid) == LockMode.EXCLUSIVE


def test_fabric_scope_fencing():
    from repro.server.node import ServerConfig
    s = make_system(n_clients=1)
    s.server.config.fence_scope = "fabric"
    s.server.lock_service.fence_client("c1")
    assert not s.san.reachable("c1", next(iter(s.disks)))
    s.server.lock_service.unfence_client("c1")
    assert s.san.reachable("c1", next(iter(s.disks)))


def test_demand_loop_gives_up_on_released_lock():
    """If the holder releases before the demand retries, the loop exits."""
    s = make_system(n_clients=2)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def first():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["fid"] = c1.fds.get(fd).file_id

    def second():
        yield s.sim.timeout(1.0)
        fd = yield from c2.open_file("/f", "w")
        out["granted_at"] = s.sim.now
    s.spawn(first())
    s.spawn(second())
    s.run(until=30.0)
    assert out.get("granted_at") is not None
    assert s.server.locks.mode_of("c2", out["fid"]) == LockMode.EXCLUSIVE
    assert not s.server.lock_service._active_demands  # loop cleaned up


def test_keepalive_is_pure_ack():
    s = make_system(n_clients=1)
    c = s.client("c1")
    before = s.server.metadata.ops

    def app():
        yield from c.endpoint.request("server", MsgKind.KEEPALIVE, {})
    run_gen(s, app())
    assert s.server.metadata.ops == before  # no metadata work
    assert s.server.locks.grants == 0


def test_lock_acquire_returns_attrs_for_revalidation():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        reply = yield from c.endpoint.request(
            "server", MsgKind.LOCK_ACQUIRE,
            {"file_id": 1, "mode": int(LockMode.SHARED)})
        return reply.payload
    payload = run_gen(s, app())
    assert "attrs" in payload and "extents" in payload
    assert payload["mode"] == int(LockMode.SHARED)


# -- a mutation is deferred only when its barrier really waits --------------

def _plain_mutations(system):
    """Plain CREATE (fresh and existing path) and SETATTR from c1; the
    kinds the server's endpoint sent while answering them."""
    c = system.client("c1")
    sent_before = len(system.trace.select(kind="msg.send", node="server"))
    out = {}

    def app():
        from repro.net import NackError
        ack = yield from c.endpoint.request(
            "server", MsgKind.CREATE, {"path": "/d/f", "size": 0})
        out["fid"] = ack.payload["file_id"]
        try:
            yield from c.endpoint.request(
                "server", MsgKind.CREATE, {"path": "/d/f", "size": 0})
        except NackError as exc:
            out["again"] = exc.nack.payload
        ack = yield from c.endpoint.request(
            "server", MsgKind.SETATTR,
            {"file_id": out["fid"], "size": 3 * BLOCK_SIZE})
        out["size"] = ack.payload["attrs"]["size"]
    run_gen(system, app())
    sent = system.trace.select(kind="msg.send", node="server")[sent_before:]
    out["kinds"] = [rec.detail["msg_kind"] for rec in sent
                    if rec.detail["dst"] == "c1"
                    or rec.detail["msg_kind"] == MsgKind.CACHE_INVALIDATE]
    return out


def test_plain_create_and_setattr_are_two_datagrams_without_cache_nodes():
    """The barrier bracket claims nothing and never waits, so the
    generator handlers finish inside the delivery: one ACK or NACK
    each, no receipt, no RESULT."""
    out = _plain_mutations(make_system(n_clients=1))
    assert out["again"]["error"] == "exists" and out["size"] == 3 * BLOCK_SIZE
    assert out["kinds"] == [MsgKind.ACK, MsgKind.NACK, MsgKind.ACK]


def test_plain_create_and_setattr_are_deferred_behind_cache_nodes():
    """With cache nodes the bracket waits for every invalidation, so the
    same handlers park (the first invalidation leaves inside the
    delivery, ahead of the receipt ACK) and answer with a RESULT.  An
    existing path is still refused at once, before any barrier."""
    from repro.core.config import NetCacheConfig
    system = make_system(n_clients=1, netcache=NetCacheConfig(n_nodes=2))
    out = _plain_mutations(system)
    assert out["again"]["error"] == "exists" and out["size"] == 3 * BLOCK_SIZE
    deferred = [MsgKind.CACHE_INVALIDATE, MsgKind.ACK,
                MsgKind.CACHE_INVALIDATE, MsgKind.RESULT]
    assert out["kinds"] == deferred + [MsgKind.NACK] + deferred
    assert system.server.barrier._cache_pending == set()
