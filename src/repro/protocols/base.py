"""The explicit safety-authority interface and client-agent protocol.

A *safety authority* is the server-side policy deciding when it is safe
to steal an unreachable client's locks.  The Storage Tank lease
authority (:class:`repro.lease.server_lease.ServerLeaseAuthority`) is
the paper's answer; the other authorities in this package are the
alternatives it argues against.  All of them subclass
:class:`SafetyAuthority`, whose surface the server consumes:

``is_suspect(client)``
    whether the client is currently being timed out / excluded;
``resolution(client)``
    an event that fires when the client's locks have been stolen
    (None when nothing is pending);
``gatekeeper(msg)``
    inbound-message veto, installed on the endpoint by this base class
    (return ``None`` to admit, ``"nack"`` / ``"silent"`` to refuse);
``overhead_snapshot()``
    the E7/E9 overhead counters — ``state_bytes``, ``lease_cpu_ops``,
    ``lease_msgs_sent``, ``total_steals`` — sourced from the metrics
    registry (:mod:`repro.obs.registry`).

Overhead accounting goes through the registry: subclasses call
:meth:`SafetyAuthority._count_cpu` / :meth:`_count_lease_msg` instead of
bumping bespoke attributes.

:class:`ClientAgent` is the client-side counterpart: the structural
type of everything living in a ``StorageTankSystem``'s client pool
(clients, heartbeaters, renewers) — anything that can report its own
``overhead_snapshot()``.
"""

from __future__ import annotations

from typing import (Callable, Dict, Mapping, Optional, Protocol,
                    runtime_checkable)

from repro.net.control import Endpoint, ReplyObserver
from repro.net.message import Message
from repro.obs import Observability
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

#: Registry metric names for the server-side overhead trio (E7/E9).
CPU_OPS_METRIC = "lease.server.cpu_ops"
MSGS_SENT_METRIC = "lease.server.msgs_sent"
STATE_BYTES_METRIC = "lease.server.state_bytes"
STEALS_METRIC = "lease.server.steals"


@runtime_checkable
class ClientAgent(Protocol):
    """Structural type for client-side participants of a system.

    Clients (``StorageTankClient``, ``NfsPollingClient``) and protocol
    agents (Frangipani heartbeater, V-lease renewer) all conform.  The
    protocol is methods-only so ``isinstance`` checks work under
    ``runtime_checkable``.
    """

    def overhead_snapshot(self) -> Mapping[str, float]:
        """Client-side overhead counters (``lease_msgs_sent`` et al.)."""
        ...


class SafetyAuthority(ReplyObserver):
    """Base class wiring an authority to a server endpoint.

    Concrete but deliberately inert: the base authority never suspects
    and never steals, which makes it (via :class:`NoStealAuthority`)
    the honor-locks-forever baseline.  Subclasses override
    :meth:`gatekeeper`, :meth:`on_delivery_failure`, :meth:`is_suspect`
    and :meth:`resolution` to implement real policies.
    """

    def __init__(self, sim: Simulator, endpoint: Endpoint,
                 on_steal: Callable[[str], None],
                 trace: Optional[TraceRecorder] = None,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.endpoint = endpoint
        self.on_steal = on_steal
        self.trace = trace if trace is not None else endpoint.trace
        self.obs = obs if obs is not None else Observability()
        reg = self.obs.registry
        node = endpoint.name
        self._m_cpu = reg.counter(
            CPU_OPS_METRIC, "Server CPU operations spent on lease upkeep",
            labels=("node",)).labels(node=node)
        self._m_msgs = reg.counter(
            MSGS_SENT_METRIC, "Server-originated lease protocol messages",
            labels=("node",)).labels(node=node)
        self._m_steals = reg.counter(
            STEALS_METRIC, "Lock steals executed by the authority",
            labels=("node",)).labels(node=node)
        reg.gauge(
            STATE_BYTES_METRIC, "Authority memory footprint right now",
            labels=("node",)).labels(node=node).set_function(self.state_bytes)
        self.total_steals = 0
        endpoint.observers.append(self)
        endpoint.set_gatekeeper(self.gatekeeper)

    # -- interface ---------------------------------------------------------
    def is_suspect(self, client: str) -> bool:
        """Whether the client is currently excluded from service."""
        return False

    def resolution(self, client: str) -> Optional[Event]:
        """Event firing when a pending steal of ``client`` completes."""
        return None

    def state_bytes(self) -> int:
        """Authority memory footprint right now."""
        return 0

    def gatekeeper(self, msg: Message) -> Optional[str]:
        """Inbound-message veto: None admits; "nack"/"silent" refuse."""
        return None

    def overhead_snapshot(self) -> Dict[str, float]:
        """The E7/E9 overhead counters, read from the metrics registry."""
        return {
            "state_bytes": float(self.state_bytes()),
            "lease_cpu_ops": self._m_cpu.value,
            "lease_msgs_sent": self._m_msgs.value,
            "total_steals": float(self.total_steals),
        }

    def steal_now(self, client: str) -> None:
        """Immediately execute a steal via the server callback."""
        self.total_steals += 1
        self._m_steals.inc()
        self.on_steal(client)

    # -- accounting --------------------------------------------------------
    def _count_cpu(self, n: int = 1) -> None:
        """Charge ``n`` lease CPU operations to the registry."""
        self._m_cpu.inc(n)

    def _count_lease_msg(self, n: int = 1) -> None:
        """Charge ``n`` server-originated lease messages to the registry."""
        self._m_msgs.inc(n)


class NoStealAuthority(SafetyAuthority):
    """Never steal: honor the locks of unreachable clients indefinitely.

    The paper's §2 example outcome — "something as simple as a network
    partition can render major portions of a file system unavailable
    indefinitely."  Experiment E2 measures exactly that.
    """

    def on_delivery_failure(self, client: str, msg: Message) -> None:
        """Honor the unreachable client's locks; only record the event."""
        self.trace.emit(self.sim.now, "authority.honor", self.endpoint.name,
                        client=client)
