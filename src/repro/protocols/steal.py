"""Naive lock stealing (paper §1.2).

Traditional client/server file systems (AFS, Sprite, DEcorum) steal
locks from unreachable clients *safely*, because all I/O funnels through
the server: an isolated client can hold whatever lock state it likes —
it cannot reach the data.  On network attached storage the same policy
is **unsafe**: the isolated client keeps writing to shared disks, so the
old and new holders act concurrently on the same data.  Experiment E3/E9
runs this authority on the SAN substrate and lets the consistency audit
catch the resulting multi-writer violations (invariant I4).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.message import Message
from repro.protocols.base import SafetyAuthority
from repro.sim.events import Event


class ImmediateStealAuthority(SafetyAuthority):
    """Steal the instant a delivery failure is observed."""

    #: Trace kind of the steal (FencingOnlyAuthority overrides it).
    steal_event = "authority.immediate_steal"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._resolutions: Dict[str, Event] = {}

    def on_delivery_failure(self, client: str, msg: Message) -> None:
        """Steal from ``client`` at once, with no lease wait."""
        self._count_cpu()
        self.trace.emit(self.sim.now, self.steal_event,
                        self.endpoint.name, client=client)
        ev = self.sim.event()
        self._resolutions[client] = ev
        try:
            self.steal_now(client)
        finally:
            ev.succeed(client)
            self._resolutions.pop(client, None)

    def resolution(self, client: str) -> Optional[Event]:
        """Event firing when a pending steal of ``client`` completes."""
        return self._resolutions.get(client)
