"""The in-network metadata cache tier: invalidation edges and faults.

Each test drives a small built system through one coherence edge the
tier must survive — lease NACK, lease lapse, WRONG_OWNER, node crash —
and asserts both the flush/fence behavior and that service degrades to
forwarding, never to a wrong answer.
"""

from __future__ import annotations

import pytest

from repro.core.config import NetCacheConfig, ScaleConfig, SystemConfig
from repro.lease.phases import LeasePhase
from repro.net.message import Message, MsgKind, NackError
from repro.sim.rng import _stable_hash

from tests.conftest import make_system, run_gen

#: Both population policies must behave identically at the cache tier.
MODES = [pytest.param(False, id="eager"), pytest.param(True, id="lazy")]


def make_cache_system(n_nodes: int = 1, lazy: bool = False, **overrides):
    kwargs = dict(
        netcache=NetCacheConfig(n_nodes=n_nodes))
    if lazy:
        kwargs["scale"] = ScaleConfig(lazy_clients=True)
    kwargs.update(overrides)
    return make_system(**kwargs)


def cache_for(system, client_name: str):
    """The cache node the router assigns to ``client_name``."""
    ordered = [system.netcache[n] for n in sorted(system.netcache)]
    return ordered[_stable_hash(client_name) % len(ordered)]


def warm(system, client, path: str = "/d/f"):
    """Create ``path`` and look it up once (cold miss → install)."""
    out = {}

    def gen():
        out["fid"] = yield from client.create(path, size=0)
        out["lookup"] = yield from client.lookup(path)
    run_gen(system, gen())
    return out


@pytest.mark.parametrize("lazy", MODES)
def test_hit_serves_from_soft_state(lazy):
    system = make_cache_system(lazy=lazy)
    name = system.pool.name_of(0)
    client = system.client(name)
    cache = cache_for(system, name)
    first = warm(system, client)
    assert cache.installs == 1 and cache.entry_count == 1

    out = {}

    def again():
        out["fid"] = yield from client.lookup("/d/f")
    run_gen(system, again())
    assert out["fid"] == first["fid"]
    assert cache.hits == 1
    assert cache.hit_rate() == pytest.approx(0.5)  # 1 miss, 1 hit


def test_lease_nack_flushes_and_degrades_to_forwarding():
    system = make_cache_system()
    name = system.pool.name_of(0)
    client = system.client(name)
    cache = cache_for(system, name)
    fid = warm(system, client)["fid"]

    # §3.3: a lease NACK from the server means invalidations may have
    # been missed while the lease was dead — everything learned from
    # that server is suspect.
    [observer] = cache.endpoint.observers
    observer.on_reply(Message(src="server", dst=cache.name, kind=MsgKind.NACK,
                              payload={"__lease_nack__": True}), None)
    assert cache.entry_count == 0
    assert cache.flushes == 1
    # §3.3: the lease skips straight to suspect.
    assert cache.leases["server"].phase() == LeasePhase.SUSPECT

    # Reads still forward and serve correctly; the freshly-forwarded
    # reply reflects post-gap server state, so re-installing it under
    # the still-unexpired lease is safe.
    out = {}

    def lookup():
        out["fid"] = yield from client.lookup("/d/f")
    run_gen(system, lookup())
    assert out["fid"] == fid
    assert cache.misses == 2 and cache.hits == 0
    assert cache.entry_count == 1

    # The nacked lease rides out to expiry (flushing again) and the
    # probe loop reacquires one; service never stops.
    system.run(until=system.sim.now + 2.0 * cache.contract.tau)
    reasons = {r.get("reason")
               for r in system.trace.select(kind="netcache.flush")}
    assert "lease-expired" in reasons
    run_gen(system, lookup())
    assert out["fid"] == fid
    assert cache.entry_count == 1


def test_lease_lapse_flushes_entries():
    """A cache node cut off from its upstream must drop the server's
    entries no later than lease expiry (the server is then free to
    mutate after its τ(1+ε) wait without telling us)."""
    system = make_cache_system()
    name = system.pool.name_of(0)
    client = system.client(name)
    cache = cache_for(system, name)
    warm(system, client)
    assert cache.entry_count == 1

    system.control_net.block_pair(cache.name, "server")
    tau = cache.contract.tau
    system.run(until=system.sim.now + 1.5 * tau)
    assert cache.entry_count == 0
    reasons = {r.get("reason")
               for r in system.trace.select(kind="netcache.flush")}
    assert "lease-expired" in reasons

    # Healed, the tier recovers: forward, renew, re-install.
    system.control_net.heal_all()
    out = {}

    def lookup():
        out["fid"] = yield from client.lookup("/d/f")
    run_gen(system, lookup())
    assert out["fid"] is not None
    assert cache.entry_count == 1


def test_wrong_owner_nack_flushes_server_entries():
    """A WRONG_OWNER answer proves the shard map rolled: every entry
    learned from that server may now belong to someone else."""
    system = make_cache_system()
    name = system.pool.name_of(0)
    client = system.client(name)
    cache = cache_for(system, name)
    warm(system, client)
    assert cache.entry_count == 1

    system.server.endpoint._handlers[MsgKind.LOOKUP] = \
        lambda msg: ("nack", {"error": "wrong_owner: shard moved"})

    def lookup():
        yield from client.lookup("/d/other")
    with pytest.raises(NackError):
        run_gen(system, lookup())
    assert cache.entry_count == 0
    reasons = {r.get("reason")
               for r in system.trace.select(kind="netcache.flush")}
    assert "wrong-owner" in reasons


@pytest.mark.parametrize("lazy", MODES)
def test_crash_degrades_to_forwarding_then_recovers(lazy):
    system = make_cache_system(lazy=lazy)
    name = system.pool.name_of(0)
    client = system.client(name)
    cache = cache_for(system, name)
    fid = warm(system, client)["fid"]

    cache.crash()
    assert cache.entry_count == 0
    hits0, misses0 = cache.hits, cache.misses

    # Dead node: the router falls back to direct delivery, so the read
    # still completes and the cache sees nothing.
    out = {}

    def lookup():
        out["fid"] = yield from client.lookup("/d/f")
    run_gen(system, lookup())
    assert out["fid"] == fid
    assert (cache.hits, cache.misses) == (hits0, misses0)

    # Restarted cold: the next read is a miss that re-installs.
    cache.restart()
    run_gen(system, lookup())
    assert out["fid"] == fid
    assert cache.misses == misses0 + 1
    assert cache.entry_count == 1


def test_crash_fences_in_flight_install():
    """A reply forwarded before a crash must not populate the store
    after the restart (the entry would be scoped to a dead lease's
    history)."""
    system = make_cache_system()
    name = system.pool.name_of(0)
    client = system.client(name)
    cache = cache_for(system, name)
    warm(system, client)

    gen0 = cache._gen.get("server", 0)
    inval0 = cache._inval_gen
    cache.crash()
    cache.restart()
    cache._maybe_install(("lookup", "server", "/d/f"), MsgKind.LOOKUP,
                         {"file_id": 1}, "server", 5, gen0, inval0)
    assert cache.installs_rejected == 1
    assert cache.entry_count == 0


def test_invalidate_drops_named_paths_and_raises_floor():
    system = make_cache_system()
    name = system.pool.name_of(0)
    client = system.client(name)
    cache = cache_for(system, name)
    warm(system, client, path="/d/a")
    warm(system, client, path="/d/b")
    assert cache.entry_count == 2

    cache._h_invalidate(Message(
        src="server", dst=cache.name, kind=MsgKind.CACHE_INVALIDATE,
        payload={"barrier": 7, "paths": ["/d/a"]}))
    assert cache.entry_count == 1  # /d/b survives
    assert ("lookup", "server", "/d/b") in cache._entries

    # The barrier floor now fences installs of replies that executed
    # before the mutation this invalidation announced.
    gen0 = cache._gen.get("server", 0)
    cache._maybe_install(("lookup", "server", "/d/a"), MsgKind.LOOKUP,
                         {"file_id": 9}, "server", 3, gen0, cache._inval_gen)
    assert cache.installs_rejected == 1
    assert ("lookup", "server", "/d/a") not in cache._entries


def test_router_only_intercepts_client_cacheable_reads():
    system = make_cache_system()
    route = system.control_net._cache_router
    name = system.pool.name_of(0)
    cache = cache_for(system, name)

    hit = route(Message(src=name, dst="server", kind=MsgKind.LOOKUP,
                        payload={"path": "/d/f"}))
    assert hit is cache.endpoint
    # Non-cacheable kind, server-originated, and cache-originated
    # traffic all go direct.
    assert route(Message(src=name, dst="server", kind=MsgKind.OPEN,
                         payload={})) is None
    assert route(Message(src="server", dst=name, kind=MsgKind.LOOKUP,
                         payload={})) is None
    assert route(Message(src=cache.name, dst="server", kind=MsgKind.LOOKUP,
                         payload={})) is None
    # A dead assigned node falls back to direct delivery.
    cache.crash()
    assert route(Message(src=name, dst="server", kind=MsgKind.LOOKUP,
                         payload={"path": "/d/f"})) is None


def test_deferred_only_client_still_records_server_epoch():
    """Regression: deferred transactions ACK their receipt before
    execution and the receipt carries no epoch — the final result
    must still feed epoch detection, or a client whose traffic is all
    opens/creates never notices a server restart (§6)."""
    system = make_cache_system()
    name = system.pool.name_of(0)
    client = system.client(name)

    def create_only():
        yield from client.create("/d/f", size=0)
    run_gen(system, create_only())
    assert client.lease_agent._server_epoch.get("server") is not None


def test_config_rejects_cache_tier_off_storage_tank():
    with pytest.raises(ValueError, match="storage_tank"):
        SystemConfig(n_clients=1, protocol="frangipani",
                     netcache=NetCacheConfig(n_nodes=1))
    with pytest.raises(ValueError, match="n_nodes"):
        SystemConfig(n_clients=1, protocol="storage_tank",
                     netcache=NetCacheConfig(n_nodes=-1))
    # No nodes is "no tier", whatever the protocol.
    off = make_system(protocol="frangipani",
                      netcache=NetCacheConfig(n_nodes=0))
    assert off.netcache == {} and off.control_net._cache_router is None
