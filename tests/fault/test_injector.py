"""Fault injector schedules and the ``STEP_KINDS`` vocabulary."""

import math

import pytest

from repro.core.config import NetCacheConfig
from repro.fault import STEP_KINDS, FaultInjector, ScheduleError
from repro.simtest.runindex import RunIndex

from tests.conftest import make_system


def test_schedule_executes_in_order():
    s = make_system()
    inj = FaultInjector(s)
    inj.apply_step(2.0, "isolate_client", {"client": "c1"})
    inj.apply_step(5.0, "heal_control")
    inj.start()
    s.run(until=3.0)
    assert not s.control_net.reachable("c1", "server")
    s.run(until=6.0)
    assert s.control_net.reachable("c1", "server")
    assert [l for _, l in inj.log] == ["isolate:c1", "heal_control"]


def test_steps_at_one_time_run_in_queue_order():
    s = make_system()
    inj = FaultInjector(s)
    inj.apply_step(2.0, "heal_control")
    inj.apply_step(1.0, "isolate_client", {"client": "c1"})
    inj.apply_step(2.0, "isolate_client", {"client": "c2"})
    inj.start()
    s.run(until=3.0)
    assert [l for _, l in inj.log] == ["isolate:c1", "heal_control",
                                       "isolate:c2"]
    assert s.control_net.reachable("c1", "server")
    assert not s.control_net.reachable("c2", "server")


def test_one_way_block():
    s = make_system()
    inj = FaultInjector(s)
    inj.apply_step(1.0, "block_one_way", {"src": "c1", "dst": "server"})
    inj.start()
    s.run(until=2.0)
    assert not s.control_net.reachable("c1", "server")
    assert s.control_net.reachable("server", "c1")


def test_split_groups():
    s = make_system(n_clients=3)
    inj = FaultInjector(s)
    inj.apply_step(1.0, "split_control",
                   {"groups": [{"c1", "c2"}, {"c3", "server"}]})
    inj.start()
    s.run(until=2.0)
    assert s.control_net.reachable("c1", "c2")
    assert not s.control_net.reachable("c1", "server")


def test_san_partition_and_heal():
    s = make_system()
    inj = FaultInjector(s)
    inj.apply_step(1.0, "partition_san",
                   {"initiator": "c1", "device": "disk1"})
    inj.apply_step(3.0, "heal_san")
    inj.start()
    s.run(until=2.0)
    assert not s.san.reachable("c1", "disk1")
    s.run(until=4.0)
    assert s.san.reachable("c1", "disk1")


def test_crash_and_restart_client():
    s = make_system()
    inj = FaultInjector(s)
    inj.apply_step(1.0, "crash_client", {"client": "c1"})
    inj.apply_step(3.0, "restart_client", {"client": "c1"})
    inj.start()
    s.run(until=2.0)
    assert not s.client("c1").endpoint.alive
    s.run(until=4.0)
    assert s.client("c1").endpoint.alive


def test_injection_traced():
    s = make_system()
    inj = FaultInjector(s)
    inj.apply_step(1.0, "isolate_client", {"client": "c1"})
    inj.start()
    s.run(until=2.0)
    assert s.trace.count("fault.inject") == 1


@pytest.mark.parametrize("time", [-1.0, math.nan])
def test_apply_step_rejects_a_bad_time(time):
    inj = FaultInjector(make_system())
    with pytest.raises(ScheduleError, match="non-negative"):
        inj.apply_step(time, "heal_control")


@pytest.mark.parametrize("kind,params,match", [
    ("melt_down", {}, "unknown fault step kind"),
    ("isolate_client", {}, "missing params"),
    ("heal_control", {"x": 1}, "unknown params"),
    ("loss_burst", {"probability": 1.5}, r"in \[0, 1\]"),
])
def test_apply_step_rejects_bad_steps(kind, params, match):
    inj = FaultInjector(make_system())
    with pytest.raises(ScheduleError, match=match):
        inj.apply_step(1.0, kind, params)
    assert not inj._steps


# -- every kind's label, and what the run index folds from it ----------------

_C1_DOWN = {"down": {"c1"}}
_SERVER_DOWN = {"down": {"server"}}
_CACHE_DOWN = {"down": {"mcache1"}}

#: kind -> (its step's params, the exact ``fault.inject`` label, what the
#: run index folds from that label right after the step).  Restarts and
#: heals follow their onset; an empty fold means the index ignores it.
LABELS = {
    "isolate_client": ({"client": "c1"}, "isolate:c1", {}),
    "split_control": ({"groups": [["c1"], ["c2", "server"]]}, "split", {}),
    "block_one_way": ({"src": "c1", "dst": "server"},
                      "oneway:c1->server", {}),
    "heal_control": ({}, "heal_control", {}),
    "partition_san": ({"initiator": "c1", "device": "disk1"},
                      "san_cut:c1-disk1", {"cut": {"c1"}}),
    "heal_san": ({}, "heal_san", {"healed": {"c1"}}),
    "crash_client": ({"client": "c1"}, "crash:c1", _C1_DOWN),
    "crash_client_lossy": ({"client": "c1"}, "crash:c1", _C1_DOWN),
    "restart_client": ({"client": "c1"}, "restart:c1", {"up": {"c1"}}),
    "crash_server": ({"server": "server"}, "crash:server", _SERVER_DOWN),
    "restart_server": ({"server": "server"}, "restart:server",
                       {"up": {"server"}}),
    "loss_burst": ({"probability": 0.25}, "loss_burst:0.25", {}),
    "end_loss_burst": ({}, "end_loss_burst", {}),
    "crash_cache": ({"node": "mcache1"}, "crash:mcache1", _CACHE_DOWN),
    "restart_cache": ({"node": "mcache1"}, "restart:mcache1",
                      {"up": {"mcache1"}}),
    "flush_cache": ({"node": "mcache1"}, "flush_cache:mcache1", {}),
    "ignore_lease_expiry": ({"client": "c1"}, "byz_ignore_lease_expiry:c1",
                            {"byz": "ignore_lease_expiry"}),
    "suppress_release": ({"client": "c1"}, "byz_suppress_release:c1",
                         {"byz": "suppress_release"}),
    "forge_san_write": ({"client": "c1"}, "byz_forge_san_write:c1",
                        {"byz": "forge_san_write"}),
    "replay_stale_grant": ({"client": "c1"}, "byz_replay_stale_grant:c1",
                           {"byz": "replay_stale_grant"}),
    "stretch_clock": ({"client": "c1"}, "byz_stretch_clock:c1",
                      {"byz": "stretch_clock"}),
}

#: The onset a recovery kind needs first, so its fold can be seen.
_ONSET = {"heal_san": "partition_san", "restart_client": "crash_client",
          "restart_server": "crash_server", "restart_cache": "crash_cache"}


def test_every_kind_has_a_label_row():
    assert set(LABELS) == set(STEP_KINDS)


@pytest.mark.parametrize("kind", sorted(LABELS))
def test_label_and_its_fold(kind):
    s = make_system(record_trace=True, netcache=NetCacheConfig(n_nodes=1))
    inj = FaultInjector(s)
    onset = _ONSET.get(kind)
    if onset is not None:
        inj.apply_step(1.0, onset, LABELS[onset][0])
    params, label, fold = LABELS[kind]
    inj.apply_step(2.0, kind, params)
    inj.start()
    s.run(until=3.0)
    assert inj.log[-1] == (2.0, label)
    index = RunIndex.of(s)
    nodes = ("c1", "c2", "server", "mcache1")
    assert {n for n in nodes if index.down_at(n, 2.0)} == \
        fold.get("down", set())
    assert {n for n in nodes if index.san_cut_at(n, 2.0)} == \
        fold.get("cut", set())
    if "up" in fold:
        (node,) = fold["up"]
        assert index.down_at(node, 1.5) and not index.down_at(node, 2.0)
    if "healed" in fold:
        (node,) = fold["healed"]
        assert index.san_cut_at(node, 1.5)
    assert index.byzantine == ({"c1": [fold["byz"]]} if "byz" in fold else {})
