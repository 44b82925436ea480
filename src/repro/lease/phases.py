"""The client's lease phases (paper Fig. 4) and their transition table.

The phase of a lease is a *derived* quantity (elapsed lease fraction on
the client's own clock), but every announced phase change must follow an
edge of Fig. 4: time only moves the client forward through the interval
(valid → renewal → suspect → flush → expired), and the single backward
edge is a successful renewal returning the client to full service.
:func:`transition` checks each change the lease daemon announces and
raises on an edge the figure does not have.
"""

from __future__ import annotations

import enum
from typing import Mapping, FrozenSet


class LeasePhase(enum.IntEnum):
    """Where the client stands inside (or past) its lease interval."""

    VALID = 1          # lease valid; full service; renewed by any ACK
    RENEWAL = 2        # no renewal seen; actively send keep-alives
    SUSPECT = 3        # assume isolated: quiesce (no new requests)
    FLUSH = 4          # expected failure: flush dirty data to the SAN
    EXPIRED = 5        # lease dead: cache invalid, locks ceded

    @property
    def serves_new_requests(self) -> bool:
        """Local processes get service only in phases 1-2 (§3.2)."""
        return self in (LeasePhase.VALID, LeasePhase.RENEWAL)

    @property
    def cache_usable(self) -> bool:
        """Cached data may back reads until the lease expires."""
        return self != LeasePhase.EXPIRED


class IllegalPhaseTransition(Exception):
    """An announced phase change with no edge in Fig. 4."""

    def __init__(self, current: LeasePhase, target: LeasePhase) -> None:
        super().__init__(f"illegal lease phase transition "
                         f"{current.name} -> {target.name} (Fig. 4)")
        self.current = current
        self.target = target


#: The *time-driven* edges of Fig. 4: with no renewal, elapsed lease
#: fraction only grows, so the phase can only move deeper into the
#: interval (skipping boundaries a sleeping daemon slept through).
#: Every backward move — and any exit from EXPIRED — is a new lease
#: position and therefore requires a renewal (Fig. 3: the lease runs
#: from the local send time of the freshly acknowledged message).
LEGAL_TRANSITIONS: Mapping[LeasePhase, FrozenSet[LeasePhase]] = {
    LeasePhase.VALID: frozenset({LeasePhase.RENEWAL, LeasePhase.SUSPECT,
                                 LeasePhase.FLUSH, LeasePhase.EXPIRED}),
    LeasePhase.RENEWAL: frozenset({LeasePhase.SUSPECT, LeasePhase.FLUSH,
                                   LeasePhase.EXPIRED}),
    LeasePhase.SUSPECT: frozenset({LeasePhase.FLUSH, LeasePhase.EXPIRED}),
    LeasePhase.FLUSH: frozenset({LeasePhase.EXPIRED}),
    LeasePhase.EXPIRED: frozenset(),
}


def transition(current: LeasePhase, target: LeasePhase, *,
               renewed: bool = False) -> LeasePhase:
    """Move a lease phase along an edge of Fig. 4.

    Self-loops are always legal.  Without a renewal, only the
    time-driven forward edges of :data:`LEGAL_TRANSITIONS` are open;
    ``renewed=True`` (an ACK arrived since the phase was last observed)
    re-anchors the interval and may land the client anywhere in it.
    Raises :class:`IllegalPhaseTransition` otherwise.
    """
    if target is current or renewed:
        return target
    if target in LEGAL_TRANSITIONS[current]:
        return target
    raise IllegalPhaseTransition(current, target)

