"""Name-based protocol registry mapping config names to factories.

``repro.protocols.get("frangipani")`` returns a :class:`ProtocolSpec`
describing how ``core.system.build_system`` assembles that protocol:
which :class:`~repro.protocols.base.SafetyAuthority` guards the server,
what kind of client to build, whether clients run the Storage Tank
lease state machine, whether fencing is forced on or off, and which
client-side agent (heartbeater, renewer) to attach.

Factory callables import their protocol modules lazily so merely
importing the registry (as ``core.config`` validation paths do,
transitively) never drags in client/server code — that would cycle.

Third parties can :func:`register` additional specs; names must be
unique.  The seven built-in protocols mirror
``repro.core.config.PROTOCOLS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

#: (cfg, server) -> SafetyAuthority
AuthorityFactory = Callable[[Any, Any], Any]
#: (cfg, client) -> client-side agent
AgentFactory = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything ``build_system`` needs to assemble one protocol."""

    name: str
    summary: str
    authority: AuthorityFactory
    client_kind: str = "storage_tank"  # or "nfs"
    uses_leases: bool = False
    fence_on_steal: Optional[bool] = None  # None -> respect cfg.fence_on_steal
    agent: Optional[AgentFactory] = None


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a spec to the registry; duplicate names are an error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"protocol {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ProtocolSpec:
    """Look up a protocol spec by config name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; available: {available()}") from None


def available() -> Tuple[str, ...]:
    """All registered protocol names, sorted."""
    return tuple(sorted(_REGISTRY))


# -- built-in specs --------------------------------------------------------

def _storage_tank_authority(cfg: Any, server: Any) -> Any:
    from repro.lease.server_lease import ServerLeaseAuthority
    return ServerLeaseAuthority(
        server.sim, server.endpoint, server.contract,
        on_steal=server.lock_service.steal_client, trace=server.trace,
        obs=server.obs)


def _no_protocol_authority(cfg: Any, server: Any) -> Any:
    from repro.protocols.base import NoStealAuthority
    return NoStealAuthority(server.sim, server.endpoint,
                            on_steal=server.lock_service.steal_client,
                            trace=server.trace, obs=server.obs)


def _naive_steal_authority(cfg: Any, server: Any) -> Any:
    from repro.protocols.steal import ImmediateStealAuthority
    return ImmediateStealAuthority(server.sim, server.endpoint,
                                   on_steal=server.lock_service.steal_client,
                                   trace=server.trace, obs=server.obs)


def _fencing_only_authority(cfg: Any, server: Any) -> Any:
    from repro.protocols.fencing_only import FencingOnlyAuthority
    return FencingOnlyAuthority(server.sim, server.endpoint,
                                on_steal=server.lock_service.steal_client,
                                trace=server.trace, obs=server.obs)


def _frangipani_authority(cfg: Any, server: Any) -> Any:
    from repro.protocols.frangipani import FrangipaniAuthority
    return FrangipaniAuthority(server.sim, server.endpoint,
                               on_steal=server.lock_service.steal_client,
                               trace=server.trace, obs=server.obs,
                               lease_duration=cfg.lease.tau,
                               check_interval=1.0)


def _vleases_authority(cfg: Any, server: Any) -> Any:
    from repro.protocols.vleases import VLeaseAuthority
    return VLeaseAuthority(server.sim, server.endpoint,
                           on_steal=server.lock_service.steal_client,
                           trace=server.trace, obs=server.obs,
                           server=server,
                           object_lease_duration=cfg.vlease_object_duration)


def _frangipani_agent(cfg: Any, client: Any) -> Any:
    from repro.protocols.frangipani import FrangipaniClientAgent
    return FrangipaniClientAgent(client, lease_duration=cfg.lease.tau,
                                 heartbeat_interval=cfg.frangipani_heartbeat)


def _vleases_agent(cfg: Any, client: Any) -> Any:
    from repro.protocols.vleases import VLeaseClientAgent
    return VLeaseClientAgent(
        client, object_lease_duration=cfg.vlease_object_duration)


register(ProtocolSpec(
    name="storage_tank",
    summary="the paper's passive server lease authority (zero-cost E7)",
    authority=_storage_tank_authority, uses_leases=True))
register(ProtocolSpec(
    name="no_protocol",
    summary="honor locks of unreachable clients forever (§2 strawman)",
    authority=_no_protocol_authority, fence_on_steal=False))
register(ProtocolSpec(
    name="naive_steal",
    summary="steal on delivery failure without fencing (unsafe, §1.2)",
    authority=_naive_steal_authority, fence_on_steal=False))
register(ProtocolSpec(
    name="fencing_only",
    summary="fence then steal immediately (§2.1's accepted solution)",
    authority=_fencing_only_authority, fence_on_steal=True))
register(ProtocolSpec(
    name="frangipani",
    summary="heartbeat leases with per-client server state (§5)",
    authority=_frangipani_authority, agent=_frangipani_agent))
register(ProtocolSpec(
    name="vleases",
    summary="V-system per-object leases with renewal traffic (§4)",
    authority=_vleases_authority, agent=_vleases_agent))
register(ProtocolSpec(
    name="nfs",
    summary="attribute polling without locks (incoherent, §5)",
    authority=_no_protocol_authority, client_kind="nfs",
    fence_on_steal=False))
