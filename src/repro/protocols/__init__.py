"""Comparison protocols from the paper's related-work discussion.

Protocol registry
-----------------
Protocols are looked up by config name through a registry::

    from repro import protocols
    spec = protocols.get("frangipani")   # -> ProtocolSpec
    protocols.available()                # all registered names

A :class:`~repro.protocols.registry.ProtocolSpec` bundles the
authority factory, client kind, lease usage, fencing policy and
optional client agent factory for one protocol; ``build_system``
assembles systems purely from the spec, so adding a protocol means
registering a spec (:func:`~repro.protocols.registry.register`) — no
``core.system`` edits.  All authorities subclass
:class:`~repro.protocols.base.SafetyAuthority`; clients and agents
charge their lease traffic to the metrics registry under their node
name.

Built-in server-side *safety authorities* (plug into
:class:`repro.server.node.StorageTankServer`):

- :class:`~repro.protocols.base.NoStealAuthority` — honor locks of
  unreachable clients indefinitely (§2's unavailability strawman);
- :class:`~repro.protocols.steal.ImmediateStealAuthority` — steal on
  delivery failure, as server-marshalled file systems safely do and SAN
  file systems unsafely would (§1.2);
- :class:`~repro.protocols.fencing_only.FencingOnlyAuthority` — fence
  then steal immediately, the "currently accepted solution" §2.1 argues
  is inadequate;
- :class:`~repro.protocols.frangipani.FrangipaniAuthority` — heartbeat
  leases with per-client server state (§5);
- :class:`~repro.protocols.vleases.VLeaseAuthority` — V-system
  per-object leases with per-object server state (§4).

Client-side companions where the protocol changes client behaviour:
:class:`~repro.protocols.frangipani.FrangipaniClientAgent` (periodic
heartbeats), :class:`~repro.protocols.vleases.VLeaseClientAgent`
(per-object renewal traffic), and
:class:`~repro.protocols.nfs_polling.NfsPollingClient` (attribute
polling without locks, incoherent by design, §5).

Submodules are imported lazily (PEP 562) so that importing this
package — which protocol implementations themselves do transitively —
never recurses back into client/server modules mid-initialisation.
"""

from repro.protocols.registry import ProtocolSpec, available, get, register

_EXPORTS = {
    "DlockClient": "repro.protocols.dlock_fs",
    "FencingOnlyAuthority": "repro.protocols.fencing_only",
    "FrangipaniAuthority": "repro.protocols.frangipani",
    "FrangipaniClientAgent": "repro.protocols.frangipani",
    "ImmediateStealAuthority": "repro.protocols.steal",
    "NfsPollingClient": "repro.protocols.nfs_polling",
    "NoStealAuthority": "repro.protocols.base",
    "SafetyAuthority": "repro.protocols.base",
    "VLeaseAuthority": "repro.protocols.vleases",
    "VLeaseClientAgent": "repro.protocols.vleases",
}

__all__ = sorted(_EXPORTS) + ["ProtocolSpec", "available", "get", "register"]


def __getattr__(name):
    """Resolve protocol classes lazily from their defining modules."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    """Advertise lazy exports alongside the module's real globals."""
    return sorted(set(globals()) | set(_EXPORTS))
