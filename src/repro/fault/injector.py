"""The fault vocabulary and the injector that runs it.

:data:`STEP_KINDS` is the one fault vocabulary: per kind, its parameter
names, its ``fault.inject`` label format and its action on the system.
A fault schedule is therefore plain data — ``(time, kind, params)``
steps, serializable, replayable and shrinkable — and
:meth:`FaultInjector.apply_step` is the one place a step becomes an
action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, Mapping,
                    NamedTuple, Optional, Tuple)

from repro.core.system import StorageTankSystem
from repro.fault.adversary import BYZANTINE_KINDS, ByzantineClientAgent
from repro.sim.events import Event
from repro.sim.process import Process


class ScheduleError(ValueError):
    """A fault schedule was built or applied incorrectly."""


class StepKind(NamedTuple):
    """One fault kind: what a step of it takes, logs and does."""

    #: Parameter names; a step gives exactly these.
    params: Tuple[str, ...]
    #: The ``fault.inject`` label, a :meth:`str.format` template over
    #: the params (the run index parses it, every trace hash covers it).
    label: str
    #: ``action(system, **params)``, run at the step's time.
    action: Callable[..., Any]


def _crash_client_lossy(system: StorageTankSystem, client: str) -> None:
    """Hard client failure: endpoint down *and* volatile state (page
    cache, lock table) wiped — acked-but-unflushed writes die with the
    node, which is the paper's crash model."""
    node = system.client(client)
    node.endpoint.crash()
    node.cache.invalidate_all()
    lockclient = getattr(node, "lockclient", None)
    if lockclient is not None:
        lockclient.forget()


def _set_loss(system: StorageTankSystem, probability: float) -> None:
    system.control_net.drop_probability = probability


#: Everything the randomized schedule generator (:mod:`repro.simtest`)
#: and the harness can inject.  A crash of any node is labelled
#: ``crash:<node>``, so the run index reconstructs clients', servers'
#: and cache nodes' down windows alike.
STEP_KINDS: Dict[str, StepKind] = {
    # Control-network partitions (§2): symmetric, split and one-way.
    "isolate_client": StepKind(
        ("client",), "isolate:{client}",
        lambda system, client: system.control_net.isolate(client)),
    "split_control": StepKind(
        ("groups",), "split",
        lambda system, groups: system.control_net.split(*groups)),
    "block_one_way": StepKind(
        ("src", "dst"), "oneway:{src}->{dst}",
        lambda system, src, dst: system.control_net.block(src, dst)),
    "heal_control": StepKind(
        (), "heal_control", lambda system: system.control_net.heal_all()),
    # SAN partitions: the class where leasing "offers no improvements
    # over fencing" (§3).
    "partition_san": StepKind(
        ("initiator", "device"), "san_cut:{initiator}-{device}",
        lambda system, initiator, device:
            system.san.block_pair(initiator, device)),
    "heal_san": StepKind(
        (), "heal_san", lambda system: system.san.heal_all()),
    # Crashes: ``crash_client`` stops only the endpoint (the node object
    # stays for inspection); ``crash_client_lossy`` is §6's crash model.
    "crash_client": StepKind(
        ("client",), "crash:{client}",
        lambda system, client: system.client(client).endpoint.crash()),
    "crash_client_lossy": StepKind(
        ("client",), "crash:{client}", _crash_client_lossy),
    "restart_client": StepKind(
        ("client",), "restart:{client}",
        lambda system, client: system.client(client).endpoint.restart()),
    "crash_server": StepKind(
        ("server",), "crash:{server}",
        lambda system, server: system.server_node(server).crash()),
    "restart_server": StepKind(
        ("server",), "restart:{server}",
        lambda system, server: system.server_node(server).restart()),
    # A message-loss burst, until its end restores the configured rate.
    "loss_burst": StepKind(
        ("probability",), "loss_burst:{probability:g}", _set_loss),
    "end_loss_burst": StepKind(
        (), "end_loss_burst",
        lambda system: _set_loss(
            system, system.config.network.ctrl_drop_probability)),
    # Metadata cache nodes: a crash wipes soft state, a restart is cold.
    "crash_cache": StepKind(
        ("node",), "crash:{node}",
        lambda system, node: system.netcache[node].crash()),
    "restart_cache": StepKind(
        ("node",), "restart:{node}",
        lambda system, node: system.netcache[node].restart()),
    "flush_cache": StepKind(
        ("node",), "flush_cache:{node}",
        lambda system, node: system.netcache[node].flush_all()),
    # Byzantine possession (repro.fault.adversary): the client itself
    # misbehaves rather than failing.  §6's fencing is the backstop.
    **{kind: StepKind(
        ("client",), f"byz_{kind}:{{client}}",
        lambda system, client, kind=kind:
            ByzantineClientAgent.possess(system, client, kind))
       for kind in BYZANTINE_KINDS},
}


def check_step(time: float, kind: str, params: Mapping[str, Any]) -> StepKind:
    """Refuse a step whose kind, time or params are not well formed;
    return its :data:`STEP_KINDS` row."""
    row = STEP_KINDS.get(kind)
    if row is None:
        raise ScheduleError(
            f"unknown fault step kind {kind!r}; "
            f"known kinds: {sorted(STEP_KINDS)}")
    if not (time >= 0.0):  # also rejects NaN
        raise ScheduleError(
            f"fault step time must be non-negative, got {time!r}")
    missing = [p for p in row.params if p not in params]
    if missing:
        raise ScheduleError(
            f"fault step {kind!r} is missing params {missing}")
    unknown = sorted(p for p in params if p not in row.params)
    if unknown:
        raise ScheduleError(
            f"fault step {kind!r} got unknown params {unknown}; "
            f"it takes {list(row.params)}")
    if kind == "loss_burst" and not (0.0 <= params["probability"] <= 1.0):
        raise ScheduleError(
            f"loss probability must be in [0, 1], "
            f"got {params['probability']!r}")
    return row


@dataclass(frozen=True)
class _Step:
    time: float
    label: str
    action: Callable[[], None]


class FaultInjector:
    """Queues timed fault steps against one system and runs them.

    >>> inj = FaultInjector(system)
    >>> inj.apply_step(5.0, "isolate_client", {"client": "c1"})
    >>> inj.apply_step(40.0, "heal_control")
    >>> inj.start()
    """

    def __init__(self, system: StorageTankSystem):
        self.system = system
        self._steps: List[_Step] = []
        self.log: List[Tuple[float, str]] = []

    def apply_step(self, time: float, kind: str,
                   params: Optional[Mapping[str, Any]] = None) -> None:
        """Queue one data-described step (see :data:`STEP_KINDS`): its
        label is formatted now, its action runs at ``time``.  Steps at
        one time run in the order they were queued."""
        given = dict(params or {})
        row = check_step(time, kind, given)
        system = self.system

        def act() -> None:
            row.action(system, **given)
        self._steps.append(_Step(float(time), row.label.format(**given), act))

    def start(self) -> Process:
        """Spawn the schedule as a simulation process."""
        steps = sorted(self._steps, key=lambda s: s.time)

        def run() -> Generator[Event, Any, None]:
            sim = self.system.sim
            for step in steps:
                delay = step.time - sim.now
                if delay > 0:
                    yield sim.timeout(delay)
                step.action()
                self.log.append((sim.now, step.label))
                self.system.trace.emit(sim.now, "fault.inject", "injector",
                                       step.label)
        return self.system.spawn(run(), "fault-injector")
