"""Byzantine client possession (paper §2.1/§6 adversary model).

The lease protocol (§2–§5) is *cooperative*: its safety argument
(Theorem 3.1) assumes clients run the four-phase state machine
honestly.  §6 is the backstop for clients that do not — fencing at the
shared store contains a client that "fails to respect its lease".  The
paper never enumerates the misbehaviors; Chaudhuri's access-control
analysis and T-Lease's clock-attack model (PAPERS.md) do, and this
module turns those adversary classes into schedulable fault steps:

- ``ignore_lease_expiry`` — the client keeps serving and writing after
  its lease lapses instead of quiescing and flushing (§3.2 violated);
- ``replay_stale_grant``  — the client reasserts lock grants it
  remembers from before a steal (stale-capability replay);
- ``stretch_clock``       — the client's clock rate drifts far below
  the ε bound Theorem 3.1 assumes (T-Lease slow-clock attack), so its
  lease outlives the server's τ(1+ε) wait;
- ``forge_san_write``     — the client issues SAN writes for blocks it
  holds no lock on (it remembers device/LBA targets from past dirty
  writes and replays garbage at them);
- ``suppress_release``    — the client ACKs every LOCK_DEMAND but
  never complies (honest-looking liveness attack).

The paper's actual claim — the one the containment oracles check — is
that misbehavior is *contained*, not prevented: honest clients'
consistency invariants hold and the adversary is eventually fenced.

Possession is a wrapper, not a subclass: :func:`possess` takes an
ordinary, already-built client (eager or lazily materialized from the
pool) and perturbs its behavior in place by overriding the documented
extension points (lease callbacks, the admission gate, the lock-table
observers, the LOCK_DEMAND handler, the local clock).  The resulting
:class:`ByzantineClientAgent` still satisfies the ``ClientAgent``
protocol, and possession draws **no** randomness — daemons tick on
fixed local intervals and iterate in sorted order, so adversarial runs
stay bit-deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Mapping, Optional, Tuple

from repro.locks.modes import LockMode
from repro.net.message import DeliveryError, Message, MsgKind, NackError
from repro.net.san import SanUnreachableError
from repro.sim.events import Event
from repro.storage.disk import FencedIoError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.client.cache import Page
    from repro.client.node import StorageTankClient
    from repro.core.system import StorageTankSystem

#: The Byzantine step vocabulary (mirrored into ``STEP_KINDS``).
BYZANTINE_KINDS: Tuple[str, ...] = (
    "ignore_lease_expiry",
    "replay_stale_grant",
    "stretch_clock",
    "forge_san_write",
    "suppress_release",
)

#: Fixed local-clock tick for the replay daemon (no randomness).
REPLAY_INTERVAL = 3.0
#: Fixed local-clock tick for the forge daemon.
FORGE_INTERVAL = 2.5
#: Slow-clock factor: well past any ε the generator draws (≤ 0.1), so
#: the possessed client's lease measurably outlives the server's wait.
STRETCH_FACTOR = 0.55


def _noop() -> None:
    return None


def _free_admit(server: Optional[str] = None) -> None:
    """Replacement admission gate: never refuse (§3.2 violated —
    operations run regardless of lease phase)."""


class ByzantineClientAgent:
    """An ordinary client possessed by one or more misbehaviors.

    Conforms to the ``ClientAgent`` protocol by delegation, so anything
    that inspects agents (overhead accounting, experiment harnesses)
    treats a possessed client like any other.
    """

    def __init__(self, system: "StorageTankSystem",
                 client: "StorageTankClient") -> None:
        self.system = system
        self.client = client
        self.kinds: Tuple[str, ...] = ()
        # Attack bookkeeping (read by tests and the E-adv experiment).
        self.replays_sent = 0
        self.replays_refused = 0
        self.forged_writes = 0
        self.forged_denied = 0
        self.demands_suppressed = 0
        self._grant_memory: Dict[int, int] = {}
        self._forge_targets: Dict[int, Dict[Tuple[str, int], None]] = {}

    # -- ClientAgent protocol ------------------------------------------------
    def overhead_snapshot(self) -> Mapping[str, float]:
        """Delegate to the possessed client (protocol conformance)."""
        return self.client.overhead_snapshot()

    # -- possession ----------------------------------------------------------
    @classmethod
    def possess(cls, system: "StorageTankSystem", client_name: str,
                kind: str) -> "ByzantineClientAgent":
        """Install one misbehavior on a client, materializing it first
        if it is a parked flyweight.  Repeat possessions of the same
        client compose on one agent; re-applying a kind is a no-op."""
        if kind not in BYZANTINE_KINDS:
            raise ValueError(f"unknown Byzantine kind {kind!r}; "
                             f"known: {sorted(BYZANTINE_KINDS)}")
        client = system.client(client_name)
        agent = getattr(client, "_byz_agent", None)
        if not isinstance(agent, cls):
            agent = cls(system, client)
            setattr(client, "_byz_agent", agent)
        agent.apply(kind)
        return agent

    def apply(self, kind: str) -> None:
        """Install one misbehavior (idempotent per kind)."""
        if kind in self.kinds:
            return
        installer = getattr(self, f"_apply_{kind}")
        installer()
        self.kinds = self.kinds + (kind,)
        self.system.trace.emit(self.system.sim.now, "byz.possess",
                               self.client.name, behavior=kind)

    # -- the five misbehaviors -----------------------------------------------
    def _apply_ignore_lease_expiry(self) -> None:
        """Keep serving and writing after lapse: the four-phase machine's
        quiesce/flush/expire callbacks are severed and the admission
        gate is replaced by a free pass.  Crucially the client never
        *observes* its own lapse, so it also never attests one — an
        attested-rejoin server keeps it fenced forever (§6)."""
        client = self.client
        for manager in client.leases.values():
            cb = manager.callbacks
            setattr(cb, "on_enter_suspect", _noop)
            setattr(cb, "on_enter_flush", _noop)
            setattr(cb, "on_expired", _noop)
        setattr(client, "_admit", _free_admit)
        # If the lease machinery already quiesced the node, it resumes.
        client.lease_agent.resume()

    def _apply_replay_stale_grant(self) -> None:
        """Remember every grant ever received and periodically reassert
        the whole set — including grants that a steal has since voided
        (pre-steal capability replay)."""
        client = self.client
        memory = self._grant_memory
        orig_granted = client.locks.note_granted

        def note_granted(obj: int, mode: LockMode) -> None:
            if int(mode) > memory.get(obj, 0):
                memory[obj] = int(mode)
            orig_granted(obj, mode)

        setattr(client.locks, "note_granted", note_granted)
        for obj, mode in client.locks.all_held():
            if int(mode) > memory.get(obj, 0):
                memory[obj] = int(mode)
        self.system.sim.process(self._replay_daemon(),
                                name=f"byz:{client.name}:replay")

    def _apply_stretch_clock(self) -> None:
        """Slow the local clock far past the ε bound (T-Lease attack):
        every locally timed interval — above all the τ lease interval —
        stretches in global time, so the client still believes its lease
        while the server's τ(1+ε) wait has long elapsed.  Offset is
        re-anchored so the local reading is continuous at the switch."""
        clock = self.client.endpoint.clock
        now = self.system.sim.now
        local_now = clock.local_time(now)
        new_rate = clock.rate * STRETCH_FACTOR
        clock.offset = local_now - new_rate * now
        clock.rate = new_rate

    def _apply_forge_san_write(self) -> None:
        """Issue SAN writes for blocks the client holds no lock on: it
        remembers every (device, lba) it ever wrote dirty data to, stops
        forgetting them on voluntary release/downgrade — only the honest
        code forgets — and replays garbage tags at them forever."""
        client = self.client
        targets = self._forge_targets
        orig_write_dirty = client.cache.write_dirty
        orig_released = client.locks.note_released
        orig_downgraded = client.locks.note_downgraded

        def write_dirty(file_id: int, logical_block: int, device: str,
                        lba: int, tag: str) -> "Page":
            targets.setdefault(file_id, {})[(device, lba)] = None
            return orig_write_dirty(file_id, logical_block, device, lba, tag)

        def note_released(obj: int) -> None:
            # A *voluntary* hand-back: an honest-looking adversary keeps
            # replaying only blocks whose locks it lost involuntarily
            # (lease lapse, steal) — the §6 containment case.
            targets.pop(obj, None)
            orig_released(obj)

        def note_downgraded(obj: int, mode: LockMode) -> None:
            targets.pop(obj, None)
            orig_downgraded(obj, mode)

        setattr(client.cache, "write_dirty", write_dirty)
        setattr(client.locks, "note_released", note_released)
        setattr(client.locks, "note_downgraded", note_downgraded)
        self.system.sim.process(self._forge_daemon(),
                                name=f"byz:{client.name}:forge")

    def _apply_suppress_release(self) -> None:
        """ACK every LOCK_DEMAND with the honest-looking reply but never
        run the compliance path (flush + release)."""
        client = self.client

        def on_demand(msg: Message) -> Tuple[str, Dict[str, Any]]:
            self.demands_suppressed += 1
            return ("ack", {"status": "demand_received"})

        client.endpoint.register(MsgKind.LOCK_DEMAND, on_demand)

    # -- attack daemons ------------------------------------------------------
    def _replay_daemon(self) -> Generator[Event, Any, None]:
        client = self.client
        endpoint = client.endpoint
        while True:
            yield endpoint.local_timeout(REPLAY_INTERVAL)
            if not endpoint.alive or not self._grant_memory:
                continue
            for obj in sorted(self._grant_memory):
                mode = self._grant_memory[obj]
                server = client.server_for_file(obj)
                try:
                    yield from endpoint.request(
                        server, MsgKind.LOCK_REASSERT,
                        {"file_id": obj, "mode": mode})
                    self.replays_sent += 1
                except NackError:
                    self.replays_refused += 1
                except DeliveryError:
                    pass

    def _forge_daemon(self) -> Generator[Event, Any, None]:
        client = self.client
        san = self.system.san
        seq = 0
        while True:
            yield client.endpoint.local_timeout(FORGE_INTERVAL)
            if not client.endpoint.alive or not self._forge_targets:
                continue
            by_device: Dict[str, Dict[int, str]] = {}
            for fid in sorted(self._forge_targets):
                for device, lba in sorted(self._forge_targets[fid]):
                    seq += 1
                    by_device.setdefault(device, {})[lba] = \
                        f"{client.name}:forged{seq}"
            for device in sorted(by_device):
                try:
                    yield from san.write(client.name, device,
                                         by_device[device])
                    self.forged_writes += 1
                except (FencedIoError, SanUnreachableError):
                    self.forged_denied += 1


def possess(system: "StorageTankSystem", client_name: str,
            kind: str) -> ByzantineClientAgent:
    """Module-level convenience for :meth:`ByzantineClientAgent.possess`."""
    return ByzantineClientAgent.possess(system, client_name, kind)
