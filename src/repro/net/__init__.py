"""The two networks of a Storage Tank installation (paper §1.1, §2).

*Control network* (:mod:`repro.net.control`): a connection-less datagram
service between clients and servers, carrying metadata, lock and lease
traffic.  Messages may be delayed, dropped or blocked by (possibly
asymmetric) partitions.

*Storage area network* (:mod:`repro.net.san`): the block-I/O fabric
between initiators (clients, servers) and storage devices.  Devices are
passive — they cannot run membership protocols (§2) — but do enforce
fence tables.

:mod:`repro.net.partition` holds :class:`LinkTable`, the blocked-pair
set both networks inherit their partitions from, and computes
per-entity network views ``V(A)``, classifying the combined two-network
partition as symmetric or asymmetric (paper equation (1)).
"""

from repro.net.message import (
    Ack,
    DeliveryError,
    Message,
    MsgKind,
    Nack,
    NackError,
)
from repro.net.control import ControlNetwork, Endpoint, ReplyObserver
from repro.net.partition import LinkTable, combined_views, is_symmetric
from repro.net.san import FencedError, SanFabric, SanUnreachableError

__all__ = [
    "Ack",
    "ControlNetwork",
    "DeliveryError",
    "Endpoint",
    "FencedError",
    "LinkTable",
    "Message",
    "MsgKind",
    "Nack",
    "NackError",
    "ReplyObserver",
    "SanFabric",
    "SanUnreachableError",
    "combined_views",
    "is_symmetric",
]
