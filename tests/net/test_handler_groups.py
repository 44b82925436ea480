"""Handler groups are checked when a node is built: every node class
names the ``KIND_GROUPS`` it serves in ``HANDLES``, and its endpoint
refuses to finish building it while one of their kinds has no handler
(``tests/lint/test_knockouts.py`` deletes registrations and watches the
build fail)."""

import pytest

from repro.core.config import NetCacheConfig
from repro.net.message import KIND_GROUPS, MsgKind

from tests.conftest import make_system

_BUILDS = {
    "single server": {},
    "cluster of two, after attach_cluster": {"n_servers": 2},
    "cache nodes": {"netcache": NetCacheConfig(n_nodes=2)},
    "V-lease authority": {"protocol": "vleases"},
    "Frangipani authority": {"protocol": "frangipani"},
}


def _served(system):
    """(node, groups) for every node of ``system`` that serves a group;
    touching a client builds it if it was parked."""
    nodes = [*system.servers.values(), *system.netcache.values(),
             system.client(system.pool.name_of(0))]
    if system.coordinator is not None:
        nodes.append(system.coordinator)
    served = [(node, node.HANDLES) for node in nodes]
    for server in system.servers.values():
        if server.cluster is not None:
            served.append((server, ("cluster-owner",)))
        authority_groups = getattr(server.authority, "HANDLES", ())
        if authority_groups:
            served.append((server, authority_groups))
    return served


def test_every_node_type_builds_and_every_group_has_a_server():
    groups = set()
    for overrides in _BUILDS.values():
        for node, handles in _served(make_system(**overrides)):
            node.endpoint.check_handles(handles)
            groups.update(handles)
    # Transport frames are consumed by the endpoint itself.
    assert groups | {"transport"} == set(KIND_GROUPS)


def test_an_unknown_group_or_an_unregistered_kind_is_named():
    system = make_system(n_clients=1)
    endpoint = system.client("c1").endpoint
    with pytest.raises(KeyError, match="no-such-group"):
        endpoint.check_handles(("no-such-group",))
    with pytest.raises(TypeError) as err:
        endpoint.check_handles(("client-demands", "intent"))
    missing = str(err.value).split("no handler for ")[1].split(", ")
    assert missing == [MsgKind.LOCK_INTENT, MsgKind.LOCK_BATCH]
