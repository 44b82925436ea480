"""Flyweight client records and the :class:`ClientPool` accessor.

The pool is the single public face for "the clients of a system" — the
typed accessor that replaces :class:`~repro.core.system.StorageTankSystem`'s
historical ``clients``/``agents`` dict pair — *and* the flyweight store
that makes million-client populations affordable.

Clients are *registered*, not built.  A registered-but-parked client is
a row of struct-of-arrays state — a few counters in flat :mod:`array`
columns plus a lease-lapse record in the
:class:`~repro.lease.pooled.PooledLeaseService` — and costs **zero**
heap-allocated sim objects and **zero** kernel heap entries.  Names are
derived from ``prefix + index`` on demand, so a million parked clients
do not even pay for a million name strings.  How much of the population
is built up front is the builder's policy (``ScaleConfig.lazy_clients``),
not a second kind of pool: building everyone is ``get`` on every name.

``get(name)`` on a parked client *materializes* it: one shared factory
closure (no per-client closures at registration time) builds the full
client for the installation's protocol.  ``park(name)`` is the reverse
edge: a *clean* client (no dirty pages, no held locks, no open files,
nothing in flight) folds its counters back into the arrays, hands its
live lease to the pooled expiry service, and tears down its endpoint
and daemons.  Parking a dirty client is refused — the paper's §3.2
obligation to flush before expiry is never left to a flyweight.

Inbound traffic wakes a parked client through the control network's
lazy-resolver hook (one resolver for the whole population), so a NACK
or server demand addressed to a parked name materializes it instead of
vanishing.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.protocols.base import ClientAgent

__all__ = ["ClientPool", "PooledCounters", "slot_of"]

#: Counter columns folded into the struct-of-arrays store while a
#: client is parked (names match ``StorageTankClient`` attributes).
COUNTER_COLUMNS: Tuple[str, ...] = (
    "ops_completed", "ops_rejected", "app_errors", "keepalives_sent")


def slot_of(name: str, population: int, prefix: str = "c",
            start: int = 1) -> Optional[int]:
    """Slot index of a registered client name, or None.

    A name is valid only in canonical form, i.e. if it round-trips
    through its index.  ``int()`` alone also parses ``"01"``, ``"+1"``,
    ``" 1"`` and full-width digits, each of which would alias slot 0
    under a second node name.
    """
    if not name.startswith(prefix):
        return None
    try:
        idx = int(name[len(prefix):]) - start
    except ValueError:
        return None
    if not 0 <= idx < population or name != f"{prefix}{start + idx}":
        return None
    return idx


class PooledCounters:
    """Struct-of-arrays counter columns for flyweight client slots.

    One signed 64-bit :mod:`array` column per counter in
    :data:`COUNTER_COLUMNS` plus a wakeup counter — a parked client's
    entire mutable state apart from its pooled lease record.
    """

    def __init__(self) -> None:
        self.columns: Dict[str, "array[int]"] = {
            name: array("q") for name in COUNTER_COLUMNS}
        self.wakeups: "array[int]" = array("q")

    def ensure_capacity(self, n: int) -> None:
        """Grow every column to hold at least ``n`` slots."""
        grow = n - len(self.wakeups)
        if grow > 0:
            zeros = bytes(self.wakeups.itemsize * grow)
            for col in self.columns.values():
                col.frombytes(zeros)
            self.wakeups.frombytes(zeros)

    def fold(self, idx: int, client: ClientAgent) -> None:
        """Accumulate a client's live counters into slot ``idx``."""
        for name, col in self.columns.items():
            col[idx] += int(getattr(client, name, 0))

    def seed(self, idx: int, client: ClientAgent) -> None:
        """Load slot ``idx``'s folded counters onto a fresh facade."""
        for name, col in self.columns.items():
            current = int(getattr(client, name, 0))
            setattr(client, name, current + col[idx])
            col[idx] = 0

    def snapshot(self, idx: int) -> Dict[str, int]:
        """Folded counter values for slot ``idx`` (parked clients)."""
        return {name: col[idx] for name, col in self.columns.items()}


class ClientPool:
    """Typed accessor over a system's client population.

    ``population`` clients are registered behind one ``factory(name,
    idx)``, which builds the full facade on first touch.  Registration
    allocates only the struct-of-arrays columns — no client objects, no
    name strings, no kernel events.

    - ``pool.get(name)`` returns the client (materializing if parked);
    - ``pool.iter_active()`` yields only live (materialized) clients;
    - ``len(pool)`` is the registered population, live or parked.
    """

    def __init__(self, population: int,
                 factory: Callable[[str, int], ClientAgent],
                 prefix: str = "c", start: int = 1) -> None:
        if population < 0:
            raise ValueError(f"population must be >= 0, got {population}")
        self._live: Dict[str, ClientAgent] = {}
        self._agents: Dict[str, ClientAgent] = {}
        self._population = population
        self._prefix = prefix
        self._start = start
        self._factory = factory
        self._parker: Optional[Callable[[ClientAgent, int], None]] = None
        #: invoked with (name, idx) just before the factory runs
        self.on_materialize: Optional[Callable[[str, int], None]] = None
        self.counters = PooledCounters()
        self.counters.ensure_capacity(population)
        self.materializations = 0
        self.parks = 0
        #: wake reason -> count ("api", "datagram", "build", ...)
        self.wake_reasons: Dict[str, int] = {}

    def set_parker(self, parker: Callable[[ClientAgent, int], None]) -> None:
        """Install the system-level park hook (endpoint/daemon teardown)."""
        self._parker = parker

    # -- naming ------------------------------------------------------------
    def name_of(self, idx: int) -> str:
        """Name of slot ``idx``."""
        if not 0 <= idx < self._population:
            raise IndexError(f"client index {idx} out of range")
        return f"{self._prefix}{self._start + idx}"

    def index_of(self, name: str) -> Optional[int]:
        """Slot index of a registered name, or None (:func:`slot_of`)."""
        return slot_of(name, self._population, self._prefix, self._start)

    # -- core accessor API -------------------------------------------------
    def get(self, name: str, reason: str = "api") -> ClientAgent:
        """Look up a client, materializing a parked flyweight.

        Raises KeyError for names outside the registered population.
        """
        client = self._live.get(name)
        if client is not None:
            return client
        idx = self.index_of(name)
        if idx is None:
            raise KeyError(name)
        return self._materialize(name, idx, reason)

    def peek(self, name: str) -> Optional[ClientAgent]:
        """The live client for ``name``, or None — never materializes."""
        return self._live.get(name)

    def iter_active(self) -> Iterator[ClientAgent]:
        """Iterate live (materialized) clients in activation order."""
        return iter(self._live.values())

    def live_names(self) -> List[str]:
        """Names of live clients in activation order."""
        return list(self._live)

    def live_items(self) -> List[Tuple[str, ClientAgent]]:
        """(name, client) pairs for live clients in activation order."""
        return list(self._live.items())

    def names(self) -> Iterator[str]:
        """Iterate every registered name, live or parked, in slot order."""
        prefix, start = self._prefix, self._start
        return (f"{prefix}{start + i}" for i in range(self._population))

    def __len__(self) -> int:
        """Registered population (live + parked)."""
        return self._population

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` is a registered client (live or parked)."""
        return self.index_of(name) is not None

    @property
    def live_count(self) -> int:
        """Number of currently materialized clients."""
        return len(self._live)

    @property
    def parked_count(self) -> int:
        """Number of registered-but-parked flyweight clients."""
        return self._population - len(self._live)

    # -- agents ------------------------------------------------------------
    def set_agent(self, name: str, agent: ClientAgent) -> None:
        """Attach a protocol agent (heartbeater, renewer) for a client."""
        self._agents[name] = agent

    def agent_for(self, name: str) -> Optional[ClientAgent]:
        """The protocol agent for a client, or None."""
        return self._agents.get(name)

    def iter_agents(self) -> Iterator[ClientAgent]:
        """Iterate protocol agents in attachment order."""
        return iter(self._agents.values())

    def agent_items(self) -> List[Tuple[str, ClientAgent]]:
        """(name, agent) pairs in attachment order."""
        return list(self._agents.items())

    # -- flyweight lifecycle -----------------------------------------------
    def _materialize(self, name: str, idx: int, reason: str) -> ClientAgent:
        if self.on_materialize is not None:
            self.on_materialize(name, idx)
        client = self._factory(name, idx)
        self.counters.seed(idx, client)
        self.counters.wakeups[idx] += 1
        self._live[name] = client
        self.materializations += 1
        self.wake_reasons[reason] = self.wake_reasons.get(reason, 0) + 1
        return client

    def park(self, name: str) -> None:
        """Fold a clean live client back into its flyweight record.

        The system-installed parker verifies cleanliness, records the
        live lease into the pooled expiry service and tears down the
        endpoint and daemon processes; this method then folds counters
        and drops the object.  Raises for names that are not live, and
        whatever the parker raises for a client it cannot fold.
        """
        client = self._live.get(name)
        if client is None:
            raise KeyError(f"{name!r} is not a live client")
        idx = self.index_of(name)
        assert idx is not None
        if self._parker is not None:
            self._parker(client, idx)
        self.counters.fold(idx, client)
        del self._live[name]
        self.parks += 1
