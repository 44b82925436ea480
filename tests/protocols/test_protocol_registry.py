"""The explicit protocol API: registry, SafetyAuthority, client agents."""

import pytest

import repro.protocols as protocols
from repro.core.config import PROTOCOLS, SystemConfig
from repro.core.system import build_system
from repro.protocols import ProtocolSpec, available, get, register
from repro.protocols.base import SafetyAuthority

from tests.conftest import touch_all

#: The authority's overhead families, one child per server node.
SERVER_FAMILIES = ("lease.server.state_bytes", "lease.server.cpu_ops",
                   "lease.server.msgs_sent")


def test_every_configured_protocol_is_registered():
    """The config validates against the registry: every registered name
    is accepted, anything else is an unknown protocol."""
    assert PROTOCOLS == available()
    for name in available():
        assert SystemConfig(protocol=name).protocol == name
    with pytest.raises(ValueError, match="unknown protocol 'afs'"):
        SystemConfig(protocol="afs")


def test_get_unknown_protocol_raises_with_choices():
    with pytest.raises(KeyError) as exc:
        get("afs")
    assert "storage_tank" in str(exc.value)


def test_specs_carry_summaries():
    for name in available():
        spec = get(name)
        assert isinstance(spec, ProtocolSpec)
        assert spec.name == name
        assert spec.summary


def test_register_rejects_duplicate_names():
    with pytest.raises(ValueError):
        register(ProtocolSpec(name="storage_tank", summary="dup",
                              authority=lambda cfg, srv: None))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_authority_conforms_to_safety_authority(protocol):
    system = build_system(SystemConfig(n_clients=1, protocol=protocol))
    auth = system.server.authority
    assert isinstance(auth, SafetyAuthority)
    # The overhead figures every reader takes from the registry.
    registry = system.obs.registry
    for family in SERVER_FAMILIES:
        assert [c.labels for c in registry.get(family).children] == [
            {"node": "server"}]
    assert isinstance(auth.is_suspect("c1"), bool)
    auth.resolution("c1")  # absent client: None or a detail dict
    assert auth.state_bytes() >= 0
    assert registry.value("lease.server.state_bytes",
                          node="server") == auth.state_bytes()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_clients_and_agents_conform_to_client_agent(protocol):
    """Every client, and every agent beside one, charges its lease
    maintenance to ``lease.client.msgs_sent`` under the client's name."""
    system = touch_all(build_system(SystemConfig(n_clients=2,
                                                 protocol=protocol)))
    family = system.obs.registry.get("lease.client.msgs_sent")
    assert sorted(c.labels["node"] for c in family.children) == ["c1", "c2"]


def test_agents_exist_only_for_agent_protocols():
    for protocol, expects_agent in (("storage_tank", False),
                                    ("frangipani", True),
                                    ("vleases", True)):
        system = touch_all(build_system(SystemConfig(n_clients=1,
                                                     protocol=protocol)))
        assert (system.pool.agent_for("c1") is not None) == expects_agent


def test_lazy_package_exports_resolve():
    for name in protocols.__all__:
        assert hasattr(protocols, name)


def test_counter_attribute_shims_removed_after_deprecation_cycle():
    system = build_system(SystemConfig(n_clients=1))
    auth = system.server.authority
    for name in ("lease_cpu_ops", "lease_msgs_sent"):
        with pytest.raises(AttributeError):
            getattr(auth, name)
    for family in SERVER_FAMILIES:
        assert system.obs.registry.value(family) == 0


def test_anyclient_alias_removed_after_deprecation_cycle():
    import repro.core.system as core_system
    with pytest.raises(AttributeError):
        core_system.AnyClient


def test_clients_and_agents_dicts_removed_after_deprecation_cycle():
    system = touch_all(build_system(SystemConfig(n_clients=1)))
    assert not hasattr(system, "clients")
    assert not hasattr(system, "agents")
    # The pool accessors are the replacement surface.
    assert set(n for n, _ in system.pool.live_items()) == {"c1"}
    assert system.pool.agent_for("c1") is None
