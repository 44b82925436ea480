"""Lease arithmetic and the Theorem 3.1 ordering argument.

A lease is a contract: the server promises to respect the client's
locks for τ (client-clock) seconds from the moment the client *initiated*
its last ACKed message (t_C1 in Fig. 3 — not the ACK receipt t_C2,
because only t_C1 is known to precede the server's reply t_S2).  The
server, upon deciding a client has failed, waits τ(1+ε) on *its own*
clock from a point no earlier than t_S2; rate synchronization within ε
then guarantees the client's lease has expired before locks are stolen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.sim.clock import LocalClock


@dataclass(frozen=True)
class PhaseBoundaries:
    """Fractions of τ at which the client's lease phases begin (§3.2).

    Phase 1 (valid) occupies ``[0, renewal)``, phase 2 (renewal period)
    ``[renewal, suspect)``, phase 3 (lease suspect / quiesce)
    ``[suspect, flush)`` and phase 4 (expected failure / flush)
    ``[flush, 1)``.
    """

    renewal: float = 0.5
    suspect: float = 0.75
    flush: float = 0.9

    def __post_init__(self) -> None:
        if not (0.0 < self.renewal < self.suspect < self.flush < 1.0):
            raise ValueError(
                f"phase fractions must satisfy 0 < renewal < suspect < flush < 1, "
                f"got {self.renewal}, {self.suspect}, {self.flush}")


@dataclass(frozen=True)
class LeaseContract:
    """The (τ, ε) contract plus phase layout."""

    tau: float = 30.0
    epsilon: float = 0.05
    boundaries: PhaseBoundaries = field(default_factory=PhaseBoundaries)

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")

    # -- client side ----------------------------------------------------------
    def client_expiry_local(self, lease_start_local: float) -> float:
        """Local time at which a lease obtained at ``lease_start_local`` dies."""
        return lease_start_local + self.tau

    def phase_start_local(self, lease_start_local: float, phase_index: int) -> float:
        """Local start time of phase 1..4 (phase 5 = expiry)."""
        b = self.boundaries
        fracs = {1: 0.0, 2: b.renewal, 3: b.suspect, 4: b.flush, 5: 1.0}
        try:
            return lease_start_local + self.tau * fracs[phase_index]
        except KeyError:
            raise ValueError(f"phase index must be 1..5, got {phase_index}") from None

    # -- server side ------------------------------------------------------------
    def server_wait_local(self) -> float:
        """τ(1+ε): the suspect timer length on the server's clock (§3)."""
        return self.tau * (1.0 + self.epsilon)

    def takeover_wait_local(self, map_lease: float) -> float:
        """(τ + map_lease)(1+ε): a takeover server's wait before any
        grant on the moved slots (:mod:`repro.cluster.takeover`)."""
        return (self.tau + map_lease) * (1.0 + self.epsilon)

    # -- derived -------------------------------------------------------------
    def keepalive_interval_local(self) -> float:
        """Default phase-2 keep-alive spacing: several tries fit in phase 2."""
        width = (self.boundaries.suspect - self.boundaries.renewal) * self.tau
        return max(width / 4.0, 1e-6)

    def worst_case_unavailability(self, detection_local: float = 0.0) -> float:
        """Upper bound on how long stolen data stays locked away: delivery
        failure detection plus the server's τ(1+ε) wait (in server-local
        seconds; the E2 experiment compares this against measurement)."""
        return detection_local + self.server_wait_local()


def verify_theorem_3_1(contract: LeaseContract, client_clock: LocalClock,
                       server_clock: LocalClock, t_send_global: float,
                       t_server_ack_global: float) -> Tuple[bool, float]:
    """Check the Theorem 3.1 ordering for one renewal.

    Given the global instants of the client's message initiation (t_C1)
    and the server's acknowledgment (t_S2 ≥ t_C1), returns
    ``(holds, margin)`` where ``margin`` is global seconds between the
    client-lease expiry and the earliest possible steal; the theorem
    asserts ``margin >= 0`` whenever both clocks respect ε.
    """
    if t_server_ack_global < t_send_global:
        raise ValueError("server ACK cannot precede message initiation")
    # Client: lease runs [t_C1, t_C1 + tau) on its own clock.
    expiry_local = contract.client_expiry_local(client_clock.local_time(t_send_global))
    expiry_global = client_clock.global_time(expiry_local)
    # Server: timer starts no earlier than t_S2, runs tau(1+eps) on its clock.
    steal_local = server_clock.local_time(t_server_ack_global) + contract.server_wait_local()
    steal_global = server_clock.global_time(steal_local)
    margin = steal_global - expiry_global
    # The theorem is exact in real arithmetic; evaluating it in floats
    # needs a magnitude-scaled tolerance for the margin==0 boundary.
    tol = 1e-9 * max(1.0, abs(expiry_global), abs(steal_global))
    return (margin >= -tol, margin)
