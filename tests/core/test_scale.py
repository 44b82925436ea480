"""Lazy (flyweight) client semantics: ScaleConfig.lazy_clients end to end."""

import tracemalloc

import pytest

from repro.client.node import StorageTankClient
from repro.core.config import ScaleConfig, SystemConfig
from repro.core.system import build_system
from repro.net.message import MsgKind


def lazy_system(n=1000, **kw):
    cfg = SystemConfig(n_clients=n, scale=ScaleConfig(lazy_clients=True), **kw)
    return build_system(cfg)


def test_idle_population_adds_no_kernel_heap_entries():
    system = lazy_system(1000)
    assert len(system.pool) == 1000
    assert system.pool.live_count == 0
    assert system.pool.parked_count == 1000
    # The kernel heap holds server-side machinery only: O(servers +
    # pools), not O(clients).
    assert system.sim.pending_events <= 8
    system.sim.run(until=60.0)
    assert system.pool.live_count == 0
    assert system.sim.pending_events <= 8


def test_eager_build_is_unchanged_by_default():
    system = build_system(SystemConfig(n_clients=3))
    assert system.pool.live_count == 3
    assert system.timers is None
    assert system.pooled_leases is None


def test_accessor_materializes_a_real_client():
    system = lazy_system(1000)
    client = system.client("c500")
    assert isinstance(client, StorageTankClient)
    assert client.name == "c500"
    assert system.pool.live_count == 1
    assert system.pool.wake_reasons == {"api": 1}
    assert system.client("c500") is client  # second get: plain lookup


def test_inbound_datagram_wakes_parked_client():
    system = lazy_system(100)
    got = {}

    def demand():
        ack = yield from system.server.endpoint.request(
            "c7", MsgKind.RANGE_DEMAND, {})
        got["ack"] = ack

    proc = system.spawn(demand(), "demand")
    system.sim.run_until_event(proc, hard_limit=60.0)
    assert "ack" in got  # the parked client answered
    assert system.pool.live_count == 1
    assert system.pool.peek("c7") is not None
    assert system.pool.wake_reasons == {"datagram": 1}


def obtain_lease(system, client):
    """One keepalive round-trip: its ACK obtains a lease
    opportunistically (§3.1) while leaving the client clean enough to
    park (no locks, no fds, no dirty pages)."""
    srv = next(iter(client.leases))

    def op():
        yield from client._rpc(MsgKind.KEEPALIVE, {}, srv)

    proc = system.spawn(op(), f"keepalive:{client.name}")
    system.sim.run_until_event(proc, hard_limit=60.0)


def test_park_hands_lease_to_pooled_service_and_rewake_drops_it():
    system = lazy_system(10)
    client = system.client("c3")
    obtain_lease(system, client)
    active = [m for m in client.leases.values() if m.active]
    assert active, "keepalive should have obtained a lease"
    idx = system.pool.index_of("c3")

    system.pool.park("c3")
    assert system.pool.live_count == 0
    pooled = system.pooled_leases
    assert pooled.holds_lease(idx)
    # Conservative lapse instant: in the future, in global time.
    assert pooled.expiry_of(idx) > system.sim.now

    reborn = system.client("c3")
    assert reborn is not client
    assert not pooled.holds_lease(idx)  # record dropped on materialize
    assert pooled.expired == 0          # dropped, not double-counted
    assert system.pool.counters.wakeups[idx] == 2


def test_parked_lease_lapses_in_absentia_without_waking():
    system = lazy_system(10)
    client = system.client("c2")
    obtain_lease(system, client)
    idx = system.pool.index_of("c2")
    system.pool.park("c2")
    pooled = system.pooled_leases
    lapse_at = pooled.expiry_of(idx)
    assert lapse_at < float("inf")

    system.sim.run(until=lapse_at + 1.0)
    assert pooled.expired == 1
    assert not pooled.holds_lease(idx)
    assert system.pool.live_count == 0  # bookkeeping only: no wake


def test_parking_a_dirty_client_is_refused():
    system = lazy_system(10)
    client = system.client("c1")

    def dirty():
        yield from client.create("/f", size=4096)
        fd = yield from client.open_file("/f", "w")
        yield from client.write(fd, 0, 1024)

    proc = system.spawn(dirty(), "dirty")
    system.sim.run_until_event(proc, hard_limit=120.0)
    with pytest.raises(ValueError, match="cannot park"):
        system.pool.park("c1")
    # The client stays live and untouched by the refused park.
    assert system.pool.live_count == 1
    assert system.pool.peek("c1") is client


def test_hundred_thousand_clients_fit_a_per_client_byte_budget():
    tracemalloc.start()
    try:
        system = lazy_system(100_000)
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_client = traced / 100_000
    # Registration must stay flyweight: a handful of array slots each,
    # far under one Python object (56+ bytes) per client.
    assert per_client < 400.0, f"{per_client:.0f} bytes/client"
    assert system.sim.pending_events <= 8
    assert system.pool.parked_count == 100_000


def test_scale_point_seeds_in_bulk_and_sweeps_every_parked_lease():
    from repro.harness.scale import scale_point

    point = scale_point(100_000)
    # One renew_many arms the pooled timer once: the server's machinery
    # plus that single kernel timeout, no ladder of superseded arms.
    assert point["kernel_after_build"] <= 2
    # Everyone but the 48 woken clients lapses through the pooled sweep.
    assert point["parked_expiries"] == 99_952
    assert point["live"] == 48
