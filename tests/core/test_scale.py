"""Build-on-touch (flyweight) clients end to end: every installation
registers its population parked and builds a client on first touch."""

import tracemalloc

import pytest

from repro.client.node import StorageTankClient
from repro.core.config import NetCacheConfig, SystemConfig
from repro.core.system import build_system
from repro.net.message import MsgKind, RangeDemand

from tests.conftest import touch_all


def lazy_system(n=1000, **kw):
    return build_system(SystemConfig(n_clients=n, **kw))


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


def test_touching_everyone_arms_no_pooled_timer():
    """Building every client is ``get`` on every name, and the pooled
    machinery every installation carries costs no kernel event."""
    system = touch_all(build_system(SystemConfig(n_clients=3)))
    assert system.pool.live_names() == ["c1", "c2", "c3"]
    assert system.pool.parked_count == 0
    assert system.pool.wake_reasons == {"api": 3}
    pooled = system.pooled_leases
    assert pooled.held == 0
    # The kernel heap holds the built clients' own timers, none of the pool's.
    assert system.sim.pending_events > 0
    assert not any(getattr(entry[2], "_waiter", None) == pooled._sweep
                   for entry in system.sim._heap)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_touch_order_changes_no_clock(seed):
    """Each node's clock is drawn from its own name: touching the
    clients in another order, or after a coordinator and cache nodes
    were built, gives every node the same (rate, offset)."""
    names = [f"c{i}" for i in range(1, 7)]

    def clocks(order, **kw):
        system = build_system(SystemConfig(
            n_clients=len(names), seed=seed, slow_clients=("c4",), **kw))
        for name in order:
            system.client(name)
        return {n: (c.rate, c.offset)
                for n, c in system.clocks.clocks.items()}

    forward = clocks(names)
    assert clocks(names[::-1]) == forward
    tiered = clocks(names[3:] + names[:3], n_servers=2,
                    netcache=NetCacheConfig(n_nodes=2))
    assert {"coord", "mcache1", "mcache2"} <= set(tiered)
    assert {n: tiered[n] for n in names} == {n: forward[n] for n in names}


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
    assert all(system.pool.agent_for(n) is None
               for n in system.pool.names() if n != "c17")
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
                alias, MsgKind.RANGE_DEMAND, RangeDemand())
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
            "c7", MsgKind.RANGE_DEMAND, RangeDemand())
        got["ack"] = ack

    proc = system.spawn(demand(), "demand")
    system.sim.run_until_event(proc, hard_limit=60.0)
    assert "ack" in got  # the parked client answered
    assert system.pool.live_count == 1
    assert system.pool.peek("c7") is not None
    assert system.pool.wake_reasons == {"datagram": 1}


def test_materializing_drops_a_seeded_pooled_record_uncounted():
    system = lazy_system(10)
    pooled = system.pooled_leases
    idx = system.pool.index_of("c3")
    lapse_at = system.sim.now + 30.0
    pooled.seed([lapse_at] * 10)
    assert pooled.holds_lease(idx)

    system.client("c3")
    assert not pooled.holds_lease(idx)  # record dropped on materialize
    assert pooled.expired == 0          # dropped, not counted as expired
    system.sim.run(until=lapse_at + 1.0)
    assert pooled.expired == 9          # and it never lapses later


def test_parked_lease_lapses_in_absentia_without_waking():
    system = lazy_system(10)
    pooled = system.pooled_leases
    idx = system.pool.index_of("c2")
    lapse_at = system.sim.now + 30.0
    pooled.seed([lapse_at if i == idx else lapse_at + 60.0
                 for i in range(10)])

    system.sim.run(until=lapse_at + 1.0)
    assert pooled.expired == 1
    assert not pooled.holds_lease(idx)
    assert system.pool.live_count == 0  # bookkeeping only: no wake


def test_hundred_thousand_clients_fit_a_per_client_byte_budget():
    """Registration is O(1) per client: the second 100k registered
    clients add no per-client state, only the pool's constant."""
    lazy_system(10)  # one-time allocations land outside the traced builds

    def traced_bytes(n):
        tracemalloc.start()
        try:
            system = lazy_system(n)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.sim.pending_events <= 8
        assert system.pool.parked_count == n
        return traced

    extra = traced_bytes(200_000) - traced_bytes(100_000)
    assert extra < 64 * 1024, f"{extra} B for 100k more clients"


def test_scale_point_seeds_in_bulk_and_sweeps_every_parked_lease():
    from repro.harness.scale import scale_point

    point = scale_point(100_000)
    # One seed arms the pooled timer once: the server's machinery
    # plus that single kernel timeout, no ladder of superseded arms.
    assert point["kernel_after_build"] <= 2
    # Everyone but the 48 woken clients lapses through the pooled sweep.
    assert point["parked_expiries"] == 99_952
    assert point["live"] == 48


def test_scale_set_up_holds_no_full_size_temporary():
    """Building and seeding 100k parked clients peaks at the columns
    that stay (the sort order and the held flags) plus the expiry draw,
    ~19 B per slot; the active-set draw adds its one CDF buffer, ~8 B
    per rank.  A sorted copy, a quantized copy of the draw or a CDF
    built through temporaries each add 8 B more."""
    from repro.harness.scale import (_build, _seed_parked_leases,
                                     _zipf_active_set)

    _seed_parked_leases(_build(1_000, 0), 30.0)  # first-call allocations
    n = 100_000
    tracemalloc.start()
    try:
        system = _build(n, 0)
        _seed_parked_leases(system, 30.0)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _zipf_active_set(system, 48, 1.1)
        _now, draw_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= 20.0, f"build + seed peak {peak / n:.1f} B/slot"
    assert (draw_peak - kept) / n <= 10.0, (
        f"active-set draw {(draw_peak - kept) / n:.1f} B/rank")


def test_scale_point_reports_its_traced_high_water():
    from repro.harness.scale import scale_point

    point = scale_point(2_000, active=4, duration=1.0)
    assert point["peak_bytes_per_client"] >= point["bytes_per_client"] > 0
