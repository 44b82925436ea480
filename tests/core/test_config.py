"""System configuration validation."""

import pytest

from repro.core import LeaseConfig, SystemConfig


def test_defaults_build():
    cfg = SystemConfig()
    assert cfg.protocol == "storage_tank"
    assert cfg.client_names() == ("c1", "c2")
    assert cfg.disk_names() == ("disk1",)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        SystemConfig(protocol="carrier-pigeon")


def test_min_counts():
    with pytest.raises(ValueError):
        SystemConfig(n_clients=0)
    with pytest.raises(ValueError):
        SystemConfig(n_disks=0)


def test_lease_config_materializes_contract():
    lc = LeaseConfig(tau=12.0, epsilon=0.02, renewal_frac=0.4,
                     suspect_frac=0.6, flush_frac=0.8)
    contract = lc.contract()
    assert contract.tau == 12.0
    assert contract.boundaries.renewal == 0.4
    assert contract.server_wait_local() == pytest.approx(12.0 * 1.02)


def test_client_names_scale():
    cfg = SystemConfig(n_clients=5)
    assert len(cfg.client_names()) == 5
    assert cfg.client_names()[-1] == "c5"


def test_multi_server_pins_protocol_message():
    with pytest.raises(ValueError,
                       match="multi-server installations are implemented "
                             "for the storage_tank protocol only"):
        SystemConfig(protocol="frangipani", n_servers=2)
    # Validation order is part of the contract: a bad protocol name is
    # reported before any multi-server/cluster complaint.
    with pytest.raises(ValueError, match="unknown protocol"):
        SystemConfig(protocol="carrier-pigeon", n_servers=7)


def test_cluster_requires_storage_tank_and_two_servers():
    """Membership follows the topology: there is no switch to forget."""
    from repro.core.system import build_system
    with pytest.raises(ValueError, match="n_servers=2.*storage_tank"):
        SystemConfig(protocol="frangipani", n_servers=2)
    # One server of any protocol: nothing to fail over to, no coordinator.
    for protocol in ("storage_tank", "frangipani"):
        single = build_system(SystemConfig(protocol=protocol, n_servers=1))
        assert single.coordinator is None
        assert single.server.cluster is None
        assert "coord" not in single.control_net.node_names
    clustered = build_system(SystemConfig(n_servers=2))
    assert clustered.coordinator is not None
    assert all(srv.cluster is not None
               for srv in clustered.servers.values())
    assert all(clustered.client(name).shard_map == clustered.coordinator.map
               for name in clustered.config.client_names())


def test_default_classmethod_is_the_default_installation():
    assert SystemConfig.default() == SystemConfig()


def test_build_system_without_config_routes_through_default():
    from repro.core.system import build_system
    system = build_system()
    assert system.config == SystemConfig.default()
    assert len(system.pool) == SystemConfig.default().n_clients


def test_shard_map_consistency_validated_up_front():
    """The ring is a constant, so the one shape check names the field
    the caller can change: a server count that does not divide it."""
    for n_servers in (7, 8, 61):
        with pytest.raises(ValueError,
                           match=rf"n_servers={n_servers} must divide "
                                 rf"the shard ring's 60 slots"):
            SystemConfig(n_servers=n_servers, protocol="storage_tank")
    for n_servers in (1, 2, 3, 4, 5, 6):
        SystemConfig(n_servers=n_servers)


def test_every_path_reaches_its_owner_on_the_constant_ring():
    """The client's fid routing, the shard role's ownership gate and the
    map's ``owner_of_path`` hash onto one ring: with a configurable
    ``n_slots`` they named different owners and 30 of these 40 creates
    died in WRONG_OWNER reroutes."""
    from repro.core.system import build_system
    system = build_system(SystemConfig(n_clients=1, n_servers=2))
    client = system.client("c1")
    made = []

    def app():
        for i in range(40):
            made.append((yield from client.create(f"/ring/f{i}", size=0)))

    system.spawn(app())
    system.run(until=60.0)
    assert len(made) == 40
    assert client.routing.rerouted_ops == 0
    assert all(srv.cluster.wrong_owner_nacks == 0
               for srv in system.servers.values())


def test_cache_tier_validation_names_its_field():
    from repro.core.config import NetCacheConfig
    with pytest.raises(ValueError, match=r"netcache\.n_nodes=-1"):
        SystemConfig(netcache=NetCacheConfig(n_nodes=-1))
    with pytest.raises(ValueError, match=r"netcache\.n_nodes=2.*storage_tank"):
        SystemConfig(protocol="nfs", netcache=NetCacheConfig(n_nodes=2))
    assert SystemConfig().cache_names() == ()  # 0 nodes: no tier
    assert SystemConfig(protocol="nfs").netcache.n_nodes == 0


def test_lazy_clients_combine_with_cluster_membership():
    from repro.core.system import build_system
    system = build_system(SystemConfig(n_clients=100, n_servers=2))
    assert system.coordinator is not None
    assert system.pool.live_count == 0


def test_slow_clients_must_name_real_clients():
    with pytest.raises(ValueError, match="c1..c2"):
        SystemConfig(n_clients=2, slow_clients=("c5",))
    with pytest.raises(ValueError, match="does not name"):
        SystemConfig(n_clients=2, slow_clients=("server",))
    SystemConfig(n_clients=2, slow_clients=("c2",))  # valid: no raise


@pytest.mark.parametrize("alias", ["c01", "c+1", "c 1", "c\uff11", "c1_0"])
def test_slow_clients_must_be_spelled_canonically(alias):
    """``int()`` parses each of these, but no clock is ever created under
    such a name: accepted, it would make nobody slow."""
    with pytest.raises(ValueError, match="does not name"):
        SystemConfig(n_clients=10, slow_clients=(alias,))
