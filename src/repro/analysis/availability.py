"""Availability metrics around injected faults."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.system import StorageTankSystem
from repro.locks.manager import CACHED
from repro.locks.modes import LockMode


@dataclass(frozen=True)
class AvailabilityReport:
    """Unavailability of locked data after a fault."""

    fault_time: float
    recovered_at: Optional[float]   # None = never within the horizon
    horizon: float

    @property
    def window(self) -> float:
        """Seconds the data stayed unavailable (horizon-capped)."""
        end = self.recovered_at if self.recovered_at is not None else self.horizon
        return max(0.0, end - self.fault_time)

    @property
    def recovered(self) -> bool:
        """Whether the data became available again at all."""
        return self.recovered_at is not None


def lock_handover_time(system: StorageTankSystem, obj: int, old_holder: str,
                       after: float) -> Optional[float]:
    """Global time the object's lock was granted to someone other than
    ``old_holder`` after instant ``after`` (None if never).  Byte-range
    grants are not a handover of the file."""
    for g in system.server.locks.history:
        if (g.op == "grant" and g.kind == CACHED and g.obj == obj
                and g.client != old_holder and g.time >= after):
            return g.time
    return None


def unavailability_after(system: StorageTankSystem, obj: int,
                         old_holder: str, fault_time: float,
                         ) -> AvailabilityReport:
    """How long a file locked by the (now isolated/failed) holder stayed
    inaccessible to conflicting requests — the E2 headline number."""
    t = lock_handover_time(system, obj, old_holder, fault_time)
    return AvailabilityReport(fault_time=fault_time, recovered_at=t,
                              horizon=system.sim.now)


def steal_times(system: StorageTankSystem, client: str) -> List[float]:
    """Global times at which the client's whole-file locks were stolen."""
    return [g.time for g in system.server.locks.history
            if g.op == "steal" and g.kind == CACHED and g.client == client]
