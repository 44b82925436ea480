"""Programmable fault schedules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional, Tuple

from repro.core.system import StorageTankSystem
from repro.fault.adversary import ByzantineClientAgent
from repro.sim.events import Event
from repro.sim.process import Process


class ScheduleError(ValueError):
    """A fault schedule was built or applied incorrectly."""


@dataclass(frozen=True)
class _Step:
    time: float
    label: str
    action: Callable[[], None]


#: Data-driven step vocabulary: kind -> (method name, required params).
#: Everything the randomized schedule generator (:mod:`repro.simtest`)
#: can emit maps onto one fluent-builder method, so a schedule is plain
#: data — serializable, replayable and shrinkable.
STEP_KINDS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "isolate_client": ("isolate_client", ("client",)),
    "split_control": ("split_control", ("groups",)),
    "block_one_way": ("block_one_way", ("src", "dst")),
    "heal_control": ("heal_control", ()),
    "partition_san": ("partition_san", ("initiator", "device")),
    "heal_san": ("heal_san", ()),
    "crash_client": ("crash_client", ("client",)),
    "crash_client_lossy": ("crash_client_lossy", ("client",)),
    "restart_client": ("restart_client", ("client",)),
    "crash_server": ("crash_server", ("server",)),
    "restart_server": ("restart_server", ("server",)),
    "loss_burst": ("loss_burst", ("probability",)),
    "end_loss_burst": ("end_loss_burst", ()),
    "crash_cache": ("crash_cache_node", ("node",)),
    "restart_cache": ("restart_cache_node", ("node",)),
    "flush_cache": ("flush_cache_node", ("node",)),
    # Byzantine possession (repro.fault.adversary): the client itself
    # misbehaves rather than failing.  §6's fencing is the backstop.
    "ignore_lease_expiry": ("ignore_lease_expiry", ("client",)),
    "replay_stale_grant": ("replay_stale_grant", ("client",)),
    "stretch_clock": ("stretch_clock", ("client",)),
    "forge_san_write": ("forge_san_write", ("client",)),
    "suppress_release": ("suppress_release", ("client",)),
}


class FaultInjector:
    """Builds a timed fault schedule against one system and runs it.

    >>> inj = FaultInjector(system)
    >>> inj.at(5.0).isolate_client("c1")
    >>> inj.at(40.0).heal_control()
    >>> inj.start()
    """

    def __init__(self, system: StorageTankSystem):
        self.system = system
        self._steps: List[_Step] = []
        self._pending_time: Optional[float] = None
        self.log: List[Tuple[float, str]] = []

    # -- schedule building (fluent) ----------------------------------------
    def at(self, time: float) -> "FaultInjector":
        """Set the time for the next queued action."""
        if not (time >= 0.0):  # also rejects NaN
            raise ScheduleError(
                f"fault step time must be a non-negative number, got {time!r}")
        self._pending_time = float(time)
        return self

    def _add(self, label: str, action: Callable[[], None]) -> "FaultInjector":
        if self._pending_time is None:
            raise ScheduleError(
                f"no pending time for fault action {label!r}: "
                f"call .at(time) before queueing an action")
        self._steps.append(_Step(self._pending_time, label, action))
        return self

    def apply_step(self, time: float, kind: str,
                   params: Optional[Mapping[str, Any]] = None,
                   ) -> "FaultInjector":
        """Queue one data-described step (see :data:`STEP_KINDS`).

        This is the entry point the randomized schedule generator uses:
        ``apply_step(3.0, "isolate_client", {"client": "c1"})`` is
        exactly ``at(3.0).isolate_client("c1")``.
        """
        entry = STEP_KINDS.get(kind)
        if entry is None:
            raise ScheduleError(
                f"unknown fault step kind {kind!r}; "
                f"known kinds: {sorted(STEP_KINDS)}")
        method_name, required = entry
        given = dict(params or {})
        missing = [p for p in required if p not in given]
        if missing:
            raise ScheduleError(
                f"fault step {kind!r} is missing params {missing}")
        method = getattr(self, method_name)
        self.at(time)
        if kind == "split_control":
            method(*given["groups"])
            return self
        method(**given)
        return self

    def isolate_client(self, client: str) -> "FaultInjector":
        """Symmetric control-network cut around one client (Fig. 2)."""
        sysm = self.system
        return self._add(f"isolate:{client}",
                         lambda: sysm.ctrl_partitions.isolate(client))

    def split_control(self, *groups: Any) -> "FaultInjector":
        """Symmetric control-network split into groups."""
        sysm = self.system
        gs = [list(g) for g in groups]
        return self._add("split", lambda: sysm.ctrl_partitions.split(*gs))

    def block_one_way(self, src: str, dst: str) -> "FaultInjector":
        """Asymmetric control-network failure: src loses its path to dst."""
        sysm = self.system
        return self._add(f"oneway:{src}->{dst}",
                         lambda: sysm.control_net.block(src, dst))

    def heal_control(self) -> "FaultInjector":
        """Remove every control-network partition."""
        sysm = self.system
        return self._add("heal_control", sysm.control_net.heal_all)

    def partition_san(self, initiator: str, device: str) -> "FaultInjector":
        """Cut an initiator's SAN path to a device."""
        sysm = self.system
        return self._add(f"san_cut:{initiator}-{device}",
                         lambda: sysm.san.block_pair(initiator, device))

    def heal_san(self) -> "FaultInjector":
        """Remove every SAN partition."""
        sysm = self.system
        return self._add("heal_san", sysm.san.heal_all)

    def crash_client(self, client: str) -> "FaultInjector":
        """Stop the client's endpoint (volatile cache/locks conceptually
        lost with it; the node object stays for inspection)."""
        sysm = self.system
        return self._add(f"crash:{client}",
                         lambda: sysm.client(client).endpoint.crash())

    def crash_client_lossy(self, client: str) -> "FaultInjector":
        """Hard client failure: endpoint down *and* volatile state
        (page cache, lock table) wiped — acked-but-unflushed writes die
        with the node, which is the paper's crash model."""
        sysm = self.system

        def crash() -> None:
            node = sysm.client(client)
            node.endpoint.crash()
            node.cache.invalidate_all()
            lockclient = getattr(node, "lockclient", None)
            if lockclient is not None:
                lockclient.forget()
        return self._add(f"crash:{client}", crash)

    def restart_client(self, client: str) -> "FaultInjector":
        """Bring a crashed client's endpoint back."""
        sysm = self.system
        return self._add(f"restart:{client}",
                         lambda: sysm.client(client).endpoint.restart())

    def crash_server(self, server: str) -> "FaultInjector":
        """Fail a metadata server (volatile lock state lost, §6)."""
        sysm = self.system
        return self._add(f"crash:{server}",
                         lambda: sysm.server_node(server).crash())

    def restart_server(self, server: str) -> "FaultInjector":
        """Bring a crashed server back (new epoch; reassertion grace)."""
        sysm = self.system
        return self._add(f"restart:{server}",
                         lambda: sysm.server_node(server).restart())

    def loss_burst(self, probability: float) -> "FaultInjector":
        """Raise the control network's datagram loss rate (message-loss
        burst) until :meth:`end_loss_burst` restores the configured
        baseline."""
        if not (0.0 <= probability <= 1.0):
            raise ScheduleError(
                f"loss probability must be in [0, 1], got {probability!r}")
        sysm = self.system

        def raise_loss() -> None:
            sysm.control_net.drop_probability = probability
        return self._add(f"loss_burst:{probability:g}", raise_loss)

    def end_loss_burst(self) -> "FaultInjector":
        """Restore the configured baseline control-network loss rate."""
        sysm = self.system

        def restore() -> None:
            sysm.control_net.drop_probability = \
                sysm.config.network.ctrl_drop_probability
        return self._add("end_loss_burst", restore)

    def crash_cache_node(self, node: str) -> "FaultInjector":
        """Kill a metadata cache node: endpoint down, soft state wiped.
        The crash:{node} label shape matches clients/servers so the
        oracle helpers' crash-window reconstruction applies unchanged."""
        sysm = self.system
        return self._add(f"crash:{node}",
                         lambda: sysm.netcache[node].crash())

    def restart_cache_node(self, node: str) -> "FaultInjector":
        """Bring a crashed cache node back with a cold (empty) store."""
        sysm = self.system
        return self._add(f"restart:{node}",
                         lambda: sysm.netcache[node].restart())

    def flush_cache_node(self, node: str) -> "FaultInjector":
        """Administratively drop every entry a cache node holds."""
        sysm = self.system
        return self._add(f"flush_cache:{node}",
                         lambda: sysm.netcache[node].flush_all())

    # -- Byzantine possession (repro.fault.adversary) -----------------------
    def _possess(self, client: str, kind: str) -> "FaultInjector":
        sysm = self.system

        def act() -> None:
            ByzantineClientAgent.possess(sysm, client, kind)
        return self._add(f"byz_{kind}:{client}", act)

    def ignore_lease_expiry(self, client: str) -> "FaultInjector":
        """Possess a client: it keeps serving/writing after lease lapse
        (§3.2 violated; §6 fencing must contain it)."""
        return self._possess(client, "ignore_lease_expiry")

    def replay_stale_grant(self, client: str) -> "FaultInjector":
        """Possess a client: it periodically reasserts every lock grant
        it ever received, including pre-steal (stale) ones."""
        return self._possess(client, "replay_stale_grant")

    def stretch_clock(self, client: str) -> "FaultInjector":
        """Possess a client: its clock rate drops far below the ε bound
        (T-Lease slow-clock attack on Theorem 3.1)."""
        return self._possess(client, "stretch_clock")

    def forge_san_write(self, client: str) -> "FaultInjector":
        """Possess a client: it issues SAN writes for blocks it holds
        no lock on (fencing/capability check must reject them)."""
        return self._possess(client, "forge_san_write")

    def suppress_release(self, client: str) -> "FaultInjector":
        """Possess a client: it ACKs lock demands but never complies."""
        return self._possess(client, "suppress_release")

    def custom(self, label: str, fn: Callable[[], None]) -> "FaultInjector":
        """Queue an arbitrary action."""
        return self._add(label, fn)

    # -- execution ------------------------------------------------------------
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
