"""Fence-then-steal recovery — the "currently accepted solution" the
paper's §2.1 dismantles.

On a delivery failure the server immediately instructs the storage
devices to stop serving the client, then steals its locks and hands
them out.  This prevents concurrent conflicting writes, but:

1. dirty write-back data on the isolated client is *stranded* — it can
   never reach disk, and a new reader sees the old version (lost
   update, invariant I2);
2. the isolated client does not learn anything until its next SAN I/O
   — local processes keep reading and writing a stale cache with no
   error reported (stale reads, invariant I3).

Experiment E3 measures both failure modes against the lease protocol.
"""

from __future__ import annotations

from repro.protocols.steal import ImmediateStealAuthority


class FencingOnlyAuthority(ImmediateStealAuthority):
    """Fence at the devices, then steal, with no lease wait.

    The fence itself is constructed by the server's ``steal_client``
    (``fence_on_steal`` must be on — the builder enforces it), so this
    is the immediate steal under another name; what it removes relative
    to Storage Tank is the τ(1+ε) grace period that lets the client
    flush and invalidate first.
    """

    steal_event = "authority.fence_steal"
