"""ClientPool: the typed accessor and flyweight store."""

import pytest

from repro.client import ClientPool, PooledCounters


class StubClient:
    """Minimal ClientAgent-conforming stand-in."""

    def __init__(self, name):
        self.name = name
        self.ops_completed = 0
        self.ops_rejected = 0
        self.app_errors = 0
        self.keepalives_sent = 0

    def overhead_snapshot(self):
        """Counters, as the ClientAgent protocol requires."""
        return {"lease_msgs_sent": 0.0}


def test_eager_pool_wraps_built_clients():
    """Building everyone is ``get`` on every name: afterwards the pool
    is a plain lookup over the built clients, in name order."""
    built = []
    pool = ClientPool(2, lambda n, i: (built.append(n), StubClient(n))[1])
    clients = {n: pool.get(n, reason="build") for n in pool.names()}
    assert built == ["c1", "c2"]
    assert len(pool) == 2
    assert pool.live_count == 2
    assert pool.parked_count == 0
    assert pool.materializations == 2
    assert pool.wake_reasons == {"build": 2}
    assert pool.get("c1") is clients["c1"]
    assert pool.peek("c2") is clients["c2"]
    assert list(pool.iter_active()) == [clients["c1"], clients["c2"]]
    assert pool.live_names() == ["c1", "c2"]
    assert pool.name_of(1) == "c2" and pool.index_of("c2") == 1
    assert "c1" in pool and "c9" not in pool
    with pytest.raises(KeyError):
        pool.get("c9")
    assert built == ["c1", "c2"]  # lookups build nothing more


def test_a_built_client_parks_like_any_other():
    """One mode: there is no kind of pool that cannot fold a client."""
    pool = ClientPool(1, lambda n, i: StubClient(n))
    pool.get("c1", reason="build").ops_completed = 3
    pool.park("c1")
    assert pool.live_count == 0 and pool.parked_count == 1
    assert pool.get("c1").ops_completed == 3


NON_CANONICAL = ["c01", "c+1", "c 1", "c1 ", "c\uff11", "c1_0", "c-0", "C1"]


@pytest.mark.parametrize("alias", NON_CANONICAL)
def test_non_canonical_names_do_not_alias_a_slot(alias):
    """``int()`` parses all of these as 1 (or 10, or 0); only the
    round-tripping spelling names the slot."""
    built = []
    pool = ClientPool(10, lambda n, i: (built.append(n), StubClient(n))[1])
    real = pool.get("c1")
    assert pool.index_of(alias) is None
    assert alias not in pool
    with pytest.raises(KeyError):
        pool.get(alias)
    assert built == ["c1"]
    assert pool.live_names() == ["c1"] and pool.get("c1") is real


def test_lazy_pool_registers_without_building():
    built = []

    def factory(name, idx):
        built.append((name, idx))
        return StubClient(name)

    pool = ClientPool(1000, factory)
    assert len(pool) == 1000
    assert pool.live_count == 0
    assert pool.parked_count == 1000
    assert built == []  # registration builds nothing
    assert "c1" in pool and "c1000" in pool and "c1001" not in pool


def test_lazy_names_derive_from_prefix_and_index():
    pool = ClientPool(3, lambda n, i: StubClient(n))
    assert pool.name_of(0) == "c1"
    assert pool.name_of(2) == "c3"
    assert pool.index_of("c1") == 0
    assert pool.index_of("c3") == 2
    assert pool.index_of("c4") is None
    assert pool.index_of("server") is None
    assert pool.index_of("cat") is None  # non-integer suffix
    with pytest.raises(IndexError):
        pool.name_of(3)
    assert list(pool.names()) == ["c1", "c2", "c3"]


def test_get_materializes_once_and_records_reason():
    pool = ClientPool(5, lambda n, i: StubClient(n))
    a = pool.get("c2", reason="datagram")
    b = pool.get("c2", reason="api")
    assert a is b
    assert pool.materializations == 1
    assert pool.wake_reasons == {"datagram": 1}
    assert pool.live_count == 1
    assert pool.peek("c3") is None  # peek never materializes
    assert pool.materializations == 1


def test_on_materialize_hook_runs_before_factory():
    events = []
    pool = ClientPool(
        2, lambda n, i: (events.append(("factory", n)), StubClient(n))[1])
    pool.on_materialize = lambda n, i: events.append(("hook", n, i))
    pool.get("c2")
    assert events == [("hook", "c2", 1), ("factory", "c2")]


def test_park_folds_counters_and_rematerialize_seeds_them():
    pool = ClientPool(4, lambda n, i: StubClient(n))
    parked_via = []
    pool.set_parker(lambda client, idx: parked_via.append((client.name, idx)))
    c = pool.get("c3")
    c.ops_completed = 7
    c.app_errors = 2
    pool.park("c3")
    assert parked_via == [("c3", 2)]
    assert pool.live_count == 0
    assert pool.parks == 1
    assert pool.counters.snapshot(2) == {
        "ops_completed": 7, "ops_rejected": 0, "app_errors": 2,
        "keepalives_sent": 0}
    again = pool.get("c3")
    assert again is not c  # a fresh facade
    assert again.ops_completed == 7  # folded counters carried over
    assert again.app_errors == 2
    assert pool.counters.snapshot(2)["ops_completed"] == 0  # moved, not copied
    assert pool.counters.wakeups[2] == 2


def test_park_requires_a_live_client():
    pool = ClientPool(2, lambda n, i: StubClient(n))
    with pytest.raises(KeyError):
        pool.park("c1")


def test_agents_attach_by_name():
    pool = ClientPool(2, lambda n, i: StubClient(n))
    agent = StubClient("c1-agent")
    pool.set_agent("c1", agent)
    assert pool.agent_for("c1") is agent
    assert pool.agent_for("c2") is None
    assert list(pool.iter_agents()) == [agent]
    assert pool.agent_items() == [("c1", agent)]


def test_live_items_is_a_detached_copy():
    pool = ClientPool(1, lambda n, i: StubClient(n))
    pool.get("c1")
    items = pool.live_items()
    assert [name for name, _ in items] == ["c1"]
    items.clear()
    assert pool.live_count == 1


def test_pooled_counters_capacity_and_fold():
    counters = PooledCounters()
    counters.ensure_capacity(10)
    counters.ensure_capacity(5)  # never shrinks
    assert len(counters.wakeups) == 10
    stub = StubClient("c1")
    stub.keepalives_sent = 3
    counters.fold(4, stub)
    counters.fold(4, stub)
    assert counters.snapshot(4)["keepalives_sent"] == 6
