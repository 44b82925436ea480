"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import SystemConfig, build_system
from repro.sim import ClockEnsemble, RandomStreams, Simulator, TraceRecorder


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """Seeded random streams."""
    return RandomStreams(1234)


@pytest.fixture
def trace() -> TraceRecorder:
    """An enabled trace recorder."""
    return TraceRecorder(enabled=True)


@pytest.fixture
def clocks(streams) -> ClockEnsemble:
    """A clock ensemble with the default ε."""
    return ClockEnsemble(0.05, streams)


def make_system(**overrides):
    """Build a small system with test-friendly defaults."""
    defaults = dict(n_clients=2, seed=42)
    defaults.update(overrides)
    return build_system(SystemConfig(**defaults))


def touch_all(system):
    """Build every client of ``system`` now, in name order (clients are
    otherwise built on first touch); returns the system."""
    for name in system.config.client_names():
        system.client(name)
    return system


def drive(system, *gens, until=None):
    """Spawn generators and run the system."""
    procs = [system.spawn(g) for g in gens]
    system.run(until=until)
    return procs


def run_gen(system, gen, hard_limit=600.0):
    """Spawn one generator and run until it finishes; return its value."""
    proc = system.spawn(gen)
    return system.sim.run_until_event(proc, hard_limit=hard_limit)


def read_via(system, node, path, kind="fs.readdir", server="server"):
    """One cacheable read of ``path`` (READDIR or LOOKUP) that
    cache node ``node`` forwards to ``server``, as a miss through it
    would: the server records the node as a holder of the reply's keys,
    so a later mutation naming them invalidates it."""
    from repro.net.message import PathOnly
    endpoint = system.netcache[node].endpoint

    def gen():
        yield from endpoint.request(server, kind, PathOnly(path))
    run_gen(system, gen())
