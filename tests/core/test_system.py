"""System builder wiring."""

import pytest

from repro.core import SystemConfig, build_system
from repro.lease.server_lease import ServerLeaseAuthority
from repro.protocols import (
    FencingOnlyAuthority,
    FrangipaniAuthority,
    ImmediateStealAuthority,
    NfsPollingClient,
    NoStealAuthority,
    VLeaseAuthority,
)
from tests.conftest import touch_all


def test_default_build_shape():
    s = build_system(SystemConfig(n_clients=3, n_disks=2, seed=1))
    assert list(s.pool.names()) == ["c1", "c2", "c3"]
    assert s.pool.live_count == 0  # each is built on first touch
    assert set(s.disks) == {"disk1", "disk2"}
    assert isinstance(s.server.authority, ServerLeaseAuthority)


@pytest.mark.parametrize("protocol,auth_type", [
    ("no_protocol", NoStealAuthority),
    ("naive_steal", ImmediateStealAuthority),
    ("fencing_only", FencingOnlyAuthority),
    ("frangipani", FrangipaniAuthority),
    ("vleases", VLeaseAuthority),
])
def test_protocol_selects_authority(protocol, auth_type):
    s = build_system(SystemConfig(protocol=protocol, seed=1))
    assert isinstance(s.server.authority, auth_type)


def test_nfs_builds_polling_clients():
    s = touch_all(build_system(SystemConfig(protocol="nfs", seed=1)))
    assert all(isinstance(c, NfsPollingClient) for c in s.pool.iter_active())


def test_fencing_only_forces_fence():
    s = build_system(SystemConfig(protocol="fencing_only",
                                  fence_on_steal=False, seed=1))
    assert s.server.config.fence_on_steal


def test_naive_steal_disables_fence():
    s = build_system(SystemConfig(protocol="naive_steal",
                                  fence_on_steal=True, seed=1))
    assert not s.server.config.fence_on_steal


def test_clocks_respect_epsilon():
    s = touch_all(build_system(SystemConfig(n_clients=6, seed=2)))
    assert s.clocks.worst_pair_epsilon() <= s.config.lease.epsilon + 1e-12


def test_slow_client_violates_bound():
    s = touch_all(build_system(SystemConfig(n_clients=2,
                                            slow_clients=("c1",), seed=2)))
    assert s.clocks.worst_pair_epsilon() > s.config.lease.epsilon


def test_same_seed_same_build():
    a = touch_all(build_system(SystemConfig(seed=9)))
    b = touch_all(build_system(SystemConfig(seed=9)))
    assert a.clocks.clocks["c1"].rate == b.clocks.clocks["c1"].rate


def test_metrics_snapshot_keys():
    """The registry snapshot carries the overhead families, per node."""
    s = touch_all(build_system(SystemConfig(seed=1)))
    snap = s.obs.registry.snapshot()
    for family in ("lease.server.state_bytes", "lease.server.cpu_ops",
                   "lease.server.msgs_sent", "lease.client.msgs_sent",
                   "net.ctrl.delivered"):
        assert family in snap
    nodes = {entry["labels"]["node"]
             for entry in snap["lease.client.msgs_sent"]["series"]}
    assert nodes == set(s.pool.live_names())


def test_network_views_connected_symmetric():
    s = build_system(SystemConfig(seed=1))
    v = s.network_views()
    assert v["symmetric"]


def test_network_views_partition_asymmetric():
    s = build_system(SystemConfig(seed=1))
    s.control_net.isolate("c1")
    v = s.network_views()
    assert not v["symmetric"]
    # The Fig. 2 facts: the disk is in c1's view and vice versa, but the
    # views differ because c2 is only in the disk's view.
    views = v["views"]
    assert "disk1" in views["c1"]
    assert "c1" in views["disk1"]
    assert views["c1"] != views["disk1"]
