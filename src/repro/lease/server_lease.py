"""The server side of the lease protocol: the *passive* locking authority.

During normal operation the authority does nothing at all: it keeps no
lease records, runs no timers and sends no messages — the paper's
headline property (§3: "the key feature of the server's protocol is
that it retains no state about client leases").  Experiment E7 verifies
these counters are exactly zero on failure-free runs.

Only a *delivery error* — a server-initiated message that a client
failed to acknowledge after retries — creates state: a suspect entry
with a τ(1+ε) timer on the server's clock.  While the entry exists the
server refuses to ACK the client (a correctness requirement of Theorem
3.1) and instead NACKs valid requests (§3.3, Fig. 5).  When the timer
fires, the client's lease has provably expired and its locks may be
stolen; the entry is then dropped and the authority is stateless again.

Overhead accounting flows through the metrics registry
(``lease.server.cpu_ops`` / ``lease.server.msgs_sent`` /
``lease.server.state_bytes``) via the :class:`SafetyAuthority` base;
when spans are enabled each suspect window becomes a
``lease.steal_resolution`` span from mark-suspect to steal completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from repro.lease.contract import LeaseContract
from repro.net.control import Endpoint
from repro.net.message import Message
from repro.obs import Observability
from repro.protocols.base import SafetyAuthority
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

#: Rough in-memory size of one suspect entry, for the E9 memory plots.
SUSPECT_ENTRY_BYTES = 64


@dataclass
class SuspectEntry:
    """Book-keeping for one client being timed out."""

    client: str
    started_local: float
    resolved: Event  # succeeds when the steal has completed


class ServerLeaseAuthority(SafetyAuthority):
    """Lease logic attached to one server endpoint."""

    def __init__(self, sim: Simulator, endpoint: Endpoint,
                 contract: LeaseContract,
                 on_steal: Callable[[str], None],
                 trace: Optional[TraceRecorder] = None,
                 nack_suspects: bool = True,
                 ack_while_expiring: bool = False,
                 obs: Optional[Observability] = None) -> None:
        """``on_steal(client)`` runs when a suspect timer fires; the server
        node uses it to steal locks and construct fences.

        ``nack_suspects=False`` silently ignores suspect clients instead of
        NACKing (the E6 ablation).  ``ack_while_expiring=True`` disables the
        no-ACK correctness rule entirely (the E4 ablation, which *breaks*
        Theorem 3.1 — never enable outside experiments).
        """
        self.contract = contract
        self.nack_suspects = nack_suspects
        self.ack_while_expiring = ack_while_expiring
        self._suspects: Dict[str, SuspectEntry] = {}
        self._steal_spans: Dict[str, object] = {}
        self.peak_state_bytes = 0
        super().__init__(sim, endpoint, on_steal, trace=trace, obs=obs)

    # -- the zero-overhead counters (experiment E7) ----------------------
    def state_bytes(self) -> int:
        """Current lease-state footprint — 0 during normal operation."""
        return len(self._suspects) * SUSPECT_ENTRY_BYTES

    @property
    def suspect_clients(self) -> List[str]:
        """Clients currently being timed out."""
        return list(self._suspects)

    def is_suspect(self, client: str) -> bool:
        """Whether the client is currently being timed out."""
        return client in self._suspects

    # -- inbound gate ---------------------------------------------------------
    def gatekeeper(self, msg: Message) -> Optional[str]:
        """Consulted by the endpoint before executing any request.

        Returns None for non-suspect clients — the normal-operation path
        performs a single dictionary probe and no lease work at all.
        """
        if self.ack_while_expiring:
            return None
        entry = self._suspects.get(msg.src)
        if entry is None:
            return None
        # §3.3: the server can neither ACK (would renew a lease it is
        # expiring) nor execute the transaction.
        self._count_cpu()
        if self.nack_suspects:
            self._count_lease_msg()
            self.trace.emit(self.sim.now, "lease.server_nack", self.endpoint.name,
                            client=msg.src, msg_kind=msg.kind)
            return "nack"
        return "silent"

    # -- failure path ------------------------------------------------------
    def on_delivery_failure(self, client: str, msg: Message) -> None:
        """A server-initiated message went unACKed: time the client out."""
        self.mark_suspect(client)

    def mark_suspect(self, client: str) -> SuspectEntry:
        """Start (idempotently) the τ(1+ε) timer for a client."""
        entry = self._suspects.get(client)
        if entry is not None:
            return entry
        self._count_cpu()
        entry = SuspectEntry(client=client,
                             started_local=self.endpoint.local_now(),
                             resolved=self.sim.event())
        self._suspects[client] = entry
        self.peak_state_bytes = max(self.peak_state_bytes, self.state_bytes())
        self.trace.emit(self.sim.now, "lease.suspect", self.endpoint.name,
                        client=client, wait_local=self.contract.server_wait_local())
        span = self.obs.begin_span(self.sim.now, "lease.steal_resolution",
                                   self.endpoint.name, client=client)
        if span is not None:
            self._steal_spans[client] = span
        self.sim.process(self._timer(entry),
                         name=f"{self.endpoint.name}:lease-timer:{client}")
        return entry

    def resolution(self, client: str) -> Optional[Event]:
        """Event that fires once the client's locks have been stolen."""
        entry = self._suspects.get(client)
        return entry.resolved if entry is not None else None

    def _timer(self, entry: SuspectEntry) -> Generator[Event, None, None]:
        yield self.endpoint.local_timeout(self.contract.server_wait_local())
        self._count_cpu()
        self.total_steals += 1
        self._m_steals.inc()
        self.trace.emit(self.sim.now, "lease.steal", self.endpoint.name,
                        client=entry.client)
        try:
            self.on_steal(entry.client)
        finally:
            self._suspects.pop(entry.client, None)
            entry.resolved.succeed(entry.client)
            span = self._steal_spans.pop(entry.client, None)
            if span is not None:
                span.end(self.sim.now)
