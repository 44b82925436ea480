"""Deterministic discrete-event simulation kernel.

A small SimPy-flavoured kernel: generator-based processes scheduled on a
binary heap keyed by ``(time, sequence)`` so identical-time events fire in
a deterministic creation order.  On top of the kernel sit per-node
rate-skewed :class:`~repro.sim.clock.LocalClock` instances (the paper's
rate-synchronization model, §3), seeded random-stream management and a
structured trace recorder.
"""

from repro.sim.events import AllOf, AnyOf, Event, Interrupt, SimulationError, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.clock import ClockEnsemble, LocalClock
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "AllOf",
    "AnyOf",
    "ClockEnsemble",
    "Event",
    "Interrupt",
    "LocalClock",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "TraceRecorder",
]
