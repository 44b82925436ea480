"""View analysis and the link table's partitions (paper §2, eq. (1))."""

import pytest

from repro.net import ControlNetwork, SanFabric, combined_views, is_symmetric
from repro.net.partition import asymmetric_witnesses
from repro.sim import RandomStreams, Simulator


class FakeNet:
    """Reachability stub."""

    def __init__(self, blocked=()):
        self.blocked = set(blocked)

    def reachable(self, a, b):
        return (a, b) not in self.blocked


def test_full_connectivity_views_symmetric():
    net = FakeNet()
    views = combined_views(["a", "b", "c"], [(net, {"a", "b", "c"})])
    assert views["a"] == frozenset({"a", "b", "c"})
    assert is_symmetric(views)


def test_clean_split_is_symmetric():
    net = FakeNet(blocked={("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")})
    views = combined_views(["a", "b", "c"], [(net, {"a", "b", "c"})])
    assert views["a"] == frozenset({"a"})
    assert views["b"] == frozenset({"b", "c"})
    assert is_symmetric(views)


def test_paper_fig2_combined_views_asymmetric():
    """Control net splits c1 from {server, c2}; SAN connects both clients
    to the disk.  V(c1) != V(disk) although each is in the other's view."""
    ctrl = FakeNet(blocked={("c1", "c2"), ("c2", "c1"),
                            ("c1", "server"), ("server", "c1")})

    class SanOnlyToDevice:
        def reachable(self, a, b):
            return "disk" in (a, b) and a != b

    entities = ["server", "c1", "c2", "disk"]
    views = combined_views(entities,
                           [(ctrl, {"server", "c1", "c2"}),
                            (SanOnlyToDevice(), {"c1", "c2", "disk"})])
    assert "disk" in views["c1"] and "c1" in views["disk"]
    assert views["c1"] != views["disk"]
    assert not is_symmetric(views)
    witnesses = asymmetric_witnesses(views)
    assert ("c1", "disk") in witnesses or ("disk", "c1") in witnesses


def test_one_way_block_view_excludes():
    net = FakeNet(blocked={("a", "b")})  # a cannot reach b, b can reach a
    views = combined_views(["a", "b"], [(net, {"a", "b"})])
    # mutual communication impossible => not in each other's views
    assert "b" not in views["a"]
    assert "a" not in views["b"]


def test_controller_isolate_and_heal():
    sim = Simulator()
    net = ControlNetwork(sim, RandomStreams(1))
    from repro.net.control import Endpoint
    from repro.sim import ClockEnsemble
    ens = ClockEnsemble(0.0, RandomStreams(1))
    for n in ("a", "b", "c"):
        Endpoint(sim, net, n, ens.create(n))
    net.isolate("a")
    assert not net.reachable("a", "b")
    assert not net.reachable("c", "a")
    assert net.reachable("b", "c")
    net.heal_all()
    assert net.reachable("a", "b")


def test_controller_split_groups():
    sim = Simulator()
    net = ControlNetwork(sim, RandomStreams(1))
    from repro.net.control import Endpoint
    from repro.sim import ClockEnsemble
    ens = ClockEnsemble(0.0, RandomStreams(1))
    for n in ("a", "b", "c", "d"):
        Endpoint(sim, net, n, ens.create(n))
    net.split({"a", "b"}, {"c", "d"})
    assert net.reachable("a", "b")
    assert net.reachable("c", "d")
    assert not net.reachable("a", "c")
    assert not net.reachable("d", "b")


def test_controller_one_way():
    sim = Simulator()
    net = ControlNetwork(sim, RandomStreams(1))
    from repro.net.control import Endpoint
    from repro.sim import ClockEnsemble
    ens = ClockEnsemble(0.0, RandomStreams(1))
    for n in ("a", "b"):
        Endpoint(sim, net, n, ens.create(n))
    net.block("a", "b")
    assert not net.reachable("a", "b")
    assert net.reachable("b", "a")


def test_san_isolate_cuts_initiators_and_devices():
    sim = Simulator()
    san = SanFabric(sim, RandomStreams(1))
    from repro.storage.disk import VirtualDisk
    for name in ("disk1", "disk2"):
        san.attach_device(VirtualDisk(name, 64))
    san.attach_initiator("c1")
    san.attach_initiator("c2")
    san.isolate("c1")
    assert not san.reachable("c1", "disk1")
    assert not san.reachable("disk2", "c1")
    assert san.reachable("c2", "disk1")
    san.unblock_pair("c1", "disk1")
    assert san.reachable("c1", "disk1") and san.reachable("disk1", "c1")
    assert not san.reachable("c1", "disk2")


def test_isolate_holds_against_nodes_attached_later():
    # Clients are built on first touch: c2 attaches to both fabrics after
    # c1 was isolated on each, and must be cut from it until heal_all.
    from repro.storage.disk import VirtualDisk
    from tests.conftest import make_system
    s = make_system(n_clients=3)
    s.client("c1")
    for net in (s.control_net, s.san):
        net.isolate("c1")
    s.client("c2")
    s.san.attach_device(VirtualDisk("disk9", 64))
    for net, peer in ((s.control_net, "c2"), (s.san, "c2"),
                      (s.san, "disk9")):
        assert not net.reachable("c1", peer) and not net.reachable(peer, "c1")
    for net in (s.control_net, s.san):
        net.heal_all()
    s.client("c3")
    for net in (s.control_net, s.san):
        assert net.reachable("c1", "c2") and net.reachable("c3", "c1")
