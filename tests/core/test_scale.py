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
    """The default policy still builds everyone, in name order, and the
    pooled machinery it now always carries costs no kernel event."""
    system = build_system(SystemConfig(n_clients=3))
    assert system.pool.live_names() == ["c1", "c2", "c3"]
    assert system.pool.parked_count == 0
    assert system.pool.wake_reasons == {"build": 3}
    assert len(system.timers) == 0 and system.timers.kernel_arms == 0
    assert len(system.pooled_leases) == 0
    lazy = lazy_system(3, writeback_interval=0.0)
    for name in lazy.pool.names():
        lazy.pool.get(name)
    idle = build_system(SystemConfig(n_clients=3, writeback_interval=0.0))
    assert idle.sim.pending_events == lazy.sim.pending_events
    assert idle.sim.events_scheduled == lazy.sim.events_scheduled


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_policies_share_one_path(seed):
    """``lazy_clients=False`` is ``lazy_clients=True`` plus touching every
    name in order: same clock draws, same constructor side effects,
    same trace."""
    from repro.simtest.runner import trace_hash
    from repro.workloads.generator import run_workload

    def run(lazy):
        system = build_system(SystemConfig(
            n_clients=4, seed=seed, writeback_interval=0.0,
            scale=ScaleConfig(lazy_clients=lazy)))
        for name in system.pool.names():
            system.pool.get(name)
        run_workload(system, 20.0)
        return trace_hash(system), len(system.trace)

    built, touched = run(False), run(True)
    assert built == touched
    assert built[1] > 100  # the runs did something


def test_default_built_client_parks_and_returns_with_clock_and_counters():
    system = build_system(SystemConfig(n_clients=3))
    client = system.client("c2")
    obtain_lease(system, client)
    client.ops_completed = 5
    clock = client.endpoint.clock
    # The default build runs a write-back daemon; parking retires it.
    system.pool.park("c2")
    assert system.pool.live_names() == ["c1", "c3"]
    assert system.pooled_leases.holds_lease(1)
    reborn = system.client("c2")
    assert reborn is not client
    assert reborn.endpoint.clock is clock
    assert reborn.ops_completed == 5
    assert not system.pooled_leases.holds_lease(1)
    run_create_write_close(system, reborn, "/after-park")


@pytest.mark.parametrize("protocol", ["nfs", "frangipani"])
def test_parking_a_client_the_parker_cannot_fold_is_refused(protocol):
    """No ``park_blockers`` (polling client) or a protocol agent whose
    daemons would be left behind: refused like a dirty client."""
    system = build_system(SystemConfig(n_clients=2, protocol=protocol))
    with pytest.raises(ValueError, match="cannot park 'c1'"):
        system.pool.park("c1")
    assert system.pool.live_count == 2
    assert system.pool.parks == 0


def run_create_write_close(system, client, path):
    def app():
        yield from client.create(path, size=4096)
        fd = yield from client.open_file(path, "w")
        yield from client.write(fd, 0, 1024)
        yield from client.close(fd)
        return True

    proc = system.spawn(app(), f"app:{client.name}")
    assert system.sim.run_until_event(proc, hard_limit=120.0) is True


@pytest.mark.parametrize("protocol", ["nfs", "frangipani", "vleases"])
def test_every_client_kind_builds_on_touch(protocol):
    system = lazy_system(50, protocol=protocol)
    assert system.pool.live_count == 0
    client = system.client("c17")
    assert system.pool.live_names() == ["c17"]
    assert (system.pool.agent_for("c17") is None) == (protocol == "nfs")
    assert [n for n, _ in system.pool.agent_items()] == (
        [] if protocol == "nfs" else ["c17"])
    run_create_write_close(system, client, "/lazy")
    assert client.ops_completed > 0


@pytest.mark.parametrize("alias", ["c07", "c+7", "c 7", "c\uff17"])
def test_datagram_to_a_non_canonical_name_is_dropped(alias):
    """The lazy resolver must not build a second node for slot 6."""
    system = lazy_system(100)
    system.client("c7")
    draws_before = len(system.clocks.clocks)
    dropped_before = system.control_net.dropped_count

    def poke():
        from repro.net.message import DeliveryError
        try:
            yield from system.server.endpoint.request(
                alias, MsgKind.RANGE_DEMAND, {})
        except DeliveryError:
            return "unreachable"

    proc = system.spawn(poke(), "poke")
    assert system.sim.run_until_event(proc, hard_limit=60.0) == "unreachable"
    assert system.pool.live_names() == ["c7"]
    assert len(system.clocks.clocks) == draws_before
    assert system.control_net.dropped_count > dropped_before


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


def test_rewoken_client_continues_its_request_numbering():
    """Receivers key at-most-once replies by (name, seq): a facade that
    started over at seq 1 was answered from its previous incarnation's
    cache (this CREATE got the KEEPALIVE's ack: ``KeyError: 'file_id'``)."""
    system = lazy_system(10)
    client = system.client("c3")
    obtain_lease(system, client)
    sent = client.endpoint._next_seq
    assert sent > 0
    system.pool.park("c3")
    reborn = system.client("c3")
    assert reborn.endpoint._next_seq == sent
    run_create_write_close(system, reborn, "/again")


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
