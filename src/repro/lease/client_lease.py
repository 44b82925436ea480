"""The client side of the lease protocol: the four-phase state machine.

One :class:`ClientLeaseManager` per (client, server) pair — the paper's
lease is a single contract covering *all* locks held with that server
(§4).  The manager renews on every ACK the client's endpoint receives
(opportunistic renewal, §3.1), runs a daemon that walks the lease
interval's phases (§3.2, Fig. 4) on the *client's own clock*, and
reacts to a NACK by jumping straight to the suspect phase (§3.3).

The daemon wakes at phase boundaries, not on every ACK: a renewal in
an announced VALID phase that moves the start forward only notes the
boundary timer it would have the daemon arm (see :meth:`renew`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional, Tuple

from repro.lease.contract import LeaseContract
from repro.lease.phases import LeasePhase, transition
from repro.net.control import Endpoint
from repro.sim.events import Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs import Observability


def _noop() -> None:
    return None


@dataclass
class LeaseCallbacks:
    """Hooks the owning client node provides to the lease daemon.

    All callbacks must be non-blocking: long work (flushing to the SAN,
    sending a keep-alive request) is spawned as a separate process by
    the client node.
    """

    send_keepalive: Callable[[], None] = _noop   # phase 2 + disconnected probing
    on_enter_suspect: Callable[[], None] = _noop  # phase 3: quiesce new requests
    on_enter_flush: Callable[[], None] = _noop    # phase 4: write out dirty data
    on_expired: Callable[[], None] = _noop        # invalidate cache, cede locks
    on_resume_service: Callable[[], None] = _noop  # late renewal pulled us back to phase 1
    on_reconnected: Callable[[], None] = _noop    # probe succeeded after expiry


class ClientLeaseManager:
    """Four-phase lease state machine for one server relationship."""

    def __init__(self, sim: Simulator, endpoint: Endpoint, server: str,
                 contract: LeaseContract,
                 callbacks: Optional[LeaseCallbacks] = None,
                 trace: Optional[TraceRecorder] = None,
                 probe_interval_local: Optional[float] = None,
                 obs: Optional["Observability"] = None) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.server = server
        self.contract = contract
        self.callbacks = callbacks or LeaseCallbacks()
        self.trace = trace if trace is not None else endpoint.trace
        self.obs = obs
        self._phase_span = None
        self.probe_interval_local = (probe_interval_local
                                     if probe_interval_local is not None
                                     else contract.keepalive_interval_local())

        self._lease_start_local: Optional[float] = None
        self._active = False
        self._ever_active = False
        self._nacked = False
        # What the daemon last announced, and the boundary timer a
        # renewal it has not seen would have armed: (instant, global
        # delay) — see ``renew``.
        self._announced: Optional[LeasePhase] = None
        self._rearm: Optional[Tuple[float, float]] = None
        self._kick: Event = sim.event()
        sim.process(self._run(), name=f"{endpoint.name}:lease:{server}")

        # Phase-occupancy accounting (experiment E5).
        self._last_phase: Optional[LeasePhase] = None
        self._last_phase_since: float = sim.now
        self.phase_time: Dict[LeasePhase, float] = {p: 0.0 for p in LeasePhase}
        self.renewals = 0
        self.expirations = 0
        self.nacks_seen = 0

    # -- public state -----------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether a valid (unexpired) lease is currently held."""
        return self._active

    @property
    def lease_start_local(self) -> Optional[float]:
        """Local initiation time of the message that obtained the lease."""
        return self._lease_start_local

    def expiry_local(self) -> Optional[float]:
        """Local expiry time of the current lease."""
        if self._lease_start_local is None:
            return None
        return self.contract.client_expiry_local(self._lease_start_local)

    def phase(self) -> LeasePhase:
        """Current phase on this client's clock: the one place the
        elapsed fraction of τ is mapped to a phase (§3.2)."""
        if not self._active or self._lease_start_local is None:
            return LeasePhase.EXPIRED
        now_local = self.endpoint.local_now()
        elapsed = (now_local - self._lease_start_local) / self.contract.tau
        b = self.contract.boundaries
        if self._nacked:
            # §3.3: after a NACK the client skips to phase 3 directly.
            elapsed = max(elapsed, b.suspect)
        if elapsed < b.renewal:
            return LeasePhase.VALID
        if elapsed < b.suspect:
            return LeasePhase.RENEWAL
        if elapsed < b.flush:
            return LeasePhase.SUSPECT
        if elapsed < 1.0:
            return LeasePhase.FLUSH
        return LeasePhase.EXPIRED

    @property
    def serves_requests(self) -> bool:
        """Whether new local-process FS requests are admitted now (§3.2)."""
        return self.phase().serves_new_requests

    # -- inputs from the endpoint ------------------------------------------
    def renew(self, t_send_local: float) -> None:
        """An ACK arrived for a message the client initiated at
        ``t_send_local``: the lease now runs ``[t_send_local, +τ)`` (Fig. 3).

        Called from the endpoint's ACK listener for *every* acknowledged
        message — this is what makes renewal free during normal operation.
        A renewal in an announced VALID phase that moves the start
        forward leaves the daemon asleep: it only notes the boundary
        timer the daemon would arm now.  The armed boundary is then
        early, never late, and when it fires the daemon arms the noted
        one (admission reads :meth:`phase` on demand, so nothing waits
        on the daemon).  "Never late" also needs the client's clock rate
        never to rise: under a faster clock a later renewal's timer could
        fall due before the armed one, and the daemon would announce the
        next phase late.  Rates only fall — the one place a rate changes
        is the slow-clock adversary, ``fault/adversary.py``
        ``_apply_stretch_clock``.
        """
        if self._nacked:
            return  # §3.3: ignore stale renewals once we know the server NACKed us
        prev_start = self._lease_start_local
        moved = prev_start is None or t_send_local > prev_start
        if moved:
            self._lease_start_local = t_send_local
        expiry = self.expiry_local()
        assert expiry is not None
        now_local = self.endpoint.local_now()
        if expiry <= now_local:
            return  # too old to validate anything
        self.renewals += 1
        was_active = self._active
        was_ever = self._ever_active
        self._active = True
        self._ever_active = True
        self.trace.emit(self.sim.now, "lease.renewed", self.endpoint.name,
                        self.server, self._lease_start_local)
        if not was_active and was_ever:
            self.trace.emit(self.sim.now, "lease.reconnect", self.endpoint.name,
                            self.server)
            self.callbacks.on_reconnected()
        if moved and was_active and self._announced == LeasePhase.VALID:
            self._rearm = (self.sim.now, self.endpoint.global_interval(
                self._boundary_wait_local(
                    t_send_local, int(LeasePhase.RENEWAL), now_local)))
            return
        self._wake()

    def on_nack(self) -> None:
        """The server refused to ACK (§3.3): cache is invalid; go suspect."""
        self.nacks_seen += 1
        if not self._active:
            return
        self._nacked = True
        self.trace.emit(self.sim.now, "lease.nack", self.endpoint.name,
                        self.server)
        self._wake()

    # -- daemon -------------------------------------------------------------
    def _wake(self) -> None:
        if not self._kick.triggered:
            self._kick.succeed()

    def _note_phase(self, phase: LeasePhase) -> None:
        now = self.sim.now
        if self._last_phase is not None:
            self.phase_time[self._last_phase] += now - self._last_phase_since
        self._last_phase = phase
        self._last_phase_since = now
        if self.obs is not None and self.obs.spans_enabled:
            if self._phase_span is not None:
                self._phase_span.end(now)
            self._phase_span = self.obs.begin_span(
                now, f"lease.phase.{phase.name.lower()}", self.endpoint.name,
                server=self.server)

    def finalize_accounting(self) -> None:
        """Close the open phase interval (call before reading phase_time)."""
        self._note_phase(self._last_phase or self.phase())

    def _run(self) -> Generator[Event, object, None]:
        renewals_seen = 0
        while True:
            if not self._active:
                if self._last_phase != LeasePhase.EXPIRED:
                    self._note_phase(LeasePhase.EXPIRED)
                # Disconnected (or never connected): probe for a server.
                if self._ever_active:
                    self.callbacks.send_keepalive()
                self._kick = self.sim.event()
                yield self.sim.any_of([
                    self._kick,
                    self.endpoint.local_timeout(self.probe_interval_local)])
                self._announced = None
                continue

            phase = self.phase()
            announced = self._announced
            if phase != announced:
                # Every announced change must follow an edge of Fig. 4:
                # forward through the interval on time alone, anywhere on
                # a renewal (the transition table, enforced live).
                transition(announced if announced is not None
                           else LeasePhase.EXPIRED, phase,
                           renewed=self.renewals > renewals_seen)
                self._note_phase(phase)
                self.trace.emit(self.sim.now, "lease.phase", self.endpoint.name,
                                self.server, int(phase))
                if phase == LeasePhase.SUSPECT:
                    self.callbacks.on_enter_suspect()
                elif phase == LeasePhase.FLUSH:
                    self.callbacks.on_enter_flush()
                elif phase == LeasePhase.EXPIRED:
                    self._announced = None
                    self._expire()
                    continue
                elif phase == LeasePhase.VALID and announced in (
                        LeasePhase.SUSPECT, LeasePhase.FLUSH):
                    self.callbacks.on_resume_service()
                self._announced = phase
            renewals_seen = self.renewals
            self._rearm = None

            assert self._lease_start_local is not None
            if self._nacked:
                b_index = {LeasePhase.SUSPECT: 4, LeasePhase.FLUSH: 5}.get(phase, 5)
            else:
                b_index = int(phase) + 1
            renewing = phase == LeasePhase.RENEWAL
            wait_local = self._boundary_wait_local(
                self._lease_start_local, b_index, self.endpoint.local_now(),
                cap=(self.contract.keepalive_interval_local() if renewing
                     else math.inf))
            if renewing:
                # Actively try to obtain a new lease with NULL keep-alives
                # (the cap above wakes the daemon for the next one).
                self.callbacks.send_keepalive()

            self._kick = self.sim.event()
            yield self.sim.any_of([
                self._kick, self.endpoint.local_timeout(wait_local)])
            # Renewals noted in VALID moved the boundary later: arm the
            # timer the last one would have armed, from its instant, and
            # do nothing else until that fires.
            while self._rearm is not None and not self._kick._triggered:
                ref, delay = self._rearm
                self._rearm = None
                renewals_seen = self.renewals
                self._kick = self.sim.event()
                yield self.sim.any_of([
                    self._kick, Timeout(self.sim, delay, since=ref)])

    def _boundary_wait_local(self, start_local: float, b_index: int,
                             now_local: float,
                             cap: float = math.inf) -> float:
        """The local wait from ``now_local`` until just past boundary
        ``b_index`` of a lease started at ``start_local`` (at most
        ``cap``).  The daemon's timer and the one :meth:`renew` notes
        both come from here, so a noted timer is the one the daemon
        would have armed, to the bit."""
        next_local = self.contract.phase_start_local(start_local, b_index)
        return min(max(next_local - now_local, 0.0), cap) + 1e-9

    def _expire(self) -> None:
        self._active = False
        self._nacked = False
        self.expirations += 1
        self.trace.emit(self.sim.now, "lease.expire", self.endpoint.name,
                        self.server)
        self.callbacks.on_expired()
