"""Failure injection.

Schedules the failure modes the paper reasons about: control-network
partitions (permanent, transient and asymmetric — §2), SAN partitions,
client, server and cache-node crashes (volatile state loss), message
loss bursts, and Byzantine client possession (§6).  Each is one row of
:data:`STEP_KINDS` — parameter names, ``fault.inject`` label, action —
and :meth:`FaultInjector.apply_step` queues a ``(time, kind, params)``
step.  All injections run as one ordinary simulation process, so they
compose with workloads and are reproducible from the seed.
"""

from repro.fault.adversary import BYZANTINE_KINDS, ByzantineClientAgent
from repro.fault.injector import STEP_KINDS, FaultInjector, ScheduleError

__all__ = [
    "BYZANTINE_KINDS",
    "ByzantineClientAgent",
    "FaultInjector",
    "STEP_KINDS",
    "ScheduleError",
]
