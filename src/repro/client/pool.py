"""Flyweight client records and the :class:`ClientPool` accessor.

The pool is the single public face for "the clients of a system" — the
typed accessor that replaces :class:`~repro.core.system.StorageTankSystem`'s
historical ``clients``/``agents`` dict pair — *and* the flyweight store
that makes million-client populations affordable.

Two modes share one API:

- **eager** (default; every pre-existing configuration): the pool wraps
  the fully-built client objects, ``get`` is a dict lookup, and nothing
  about construction order, RNG draws or event scheduling changes —
  pinned trace hashes stay bit-identical.
- **lazy** (``ScaleConfig.lazy_clients``): clients are *registered*, not
  built.  A registered-but-parked client is a row of struct-of-arrays
  state — a few counters in flat :mod:`array` columns plus a lease-lapse
  record in the :class:`~repro.lease.pooled.PooledLeaseService` — and
  costs **zero** heap-allocated sim objects and **zero** kernel heap
  entries.  Names are derived from ``prefix + index`` on demand, so a
  million parked clients do not even pay for a million name strings.

``get(name)`` on a parked client *materializes* it: one shared factory
closure (no per-client closures at registration time) builds the full
:class:`~repro.client.node.StorageTankClient` facade, which then behaves
exactly like an eagerly-built client.  ``park(name)`` is the reverse
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

__all__ = ["ClientPool", "PooledCounters"]

#: Counter columns folded into the struct-of-arrays store while a
#: client is parked (names match ``StorageTankClient`` attributes).
COUNTER_COLUMNS: Tuple[str, ...] = (
    "ops_completed", "ops_rejected", "app_errors", "keepalives_sent")


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

    Use :meth:`eager` to wrap fully-built clients (the default build
    path) or :meth:`lazy` to register a flyweight population that
    materializes on first touch.  In both modes:

    - ``pool.get(name)`` returns the client (materializing if parked);
    - ``pool.iter_active()`` yields only live (materialized) clients;
    - ``len(pool)`` is the registered population, live or parked.
    """

    def __init__(self) -> None:
        self._live: Dict[str, ClientAgent] = {}
        self._agents: Dict[str, ClientAgent] = {}
        self._population = 0
        self._lazy = False
        self._prefix = "c"
        self._start = 1
        self._factory: Optional[Callable[[str, int], ClientAgent]] = None
        self._parker: Optional[Callable[[ClientAgent, int], None]] = None
        #: invoked with (name, idx) just before the factory runs
        self.on_materialize: Optional[Callable[[str, int], None]] = None
        self.counters = PooledCounters()
        self.materializations = 0
        self.parks = 0
        #: wake reason -> count ("api", "datagram", "lease-expiry", ...)
        self.wake_reasons: Dict[str, int] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def eager(cls, clients: Dict[str, ClientAgent],
              agents: Optional[Dict[str, ClientAgent]] = None) -> "ClientPool":
        """Wrap fully-built clients (the historical build path)."""
        pool = cls()
        pool._live = clients
        pool._agents = agents if agents is not None else {}
        pool._population = len(clients)
        return pool

    @classmethod
    def lazy(cls, population: int, factory: Callable[[str, int], ClientAgent],
             prefix: str = "c", start: int = 1) -> "ClientPool":
        """Register ``population`` flyweight clients behind one factory.

        ``factory(name, idx)`` builds the full facade on first touch.
        Registration allocates only the struct-of-arrays columns — no
        client objects, no name strings, no kernel events.
        """
        if population < 0:
            raise ValueError(f"population must be >= 0, got {population}")
        pool = cls()
        pool._lazy = True
        pool._population = population
        pool._factory = factory
        pool._prefix = prefix
        pool._start = start
        pool.counters.ensure_capacity(population)
        return pool

    def set_parker(self, parker: Callable[[ClientAgent, int], None]) -> None:
        """Install the system-level park hook (endpoint/daemon teardown)."""
        self._parker = parker

    # -- naming ------------------------------------------------------------
    def name_of(self, idx: int) -> str:
        """Name of slot ``idx`` (lazy mode derives it; eager mode indexes
        the insertion order)."""
        if self._lazy:
            if not 0 <= idx < self._population:
                raise IndexError(f"client index {idx} out of range")
            return f"{self._prefix}{self._start + idx}"
        return list(self._live)[idx]

    def index_of(self, name: str) -> Optional[int]:
        """Slot index of a registered name, or None (lazy mode only
        resolves names of the ``prefix + integer`` shape)."""
        if not self._lazy:
            for i, n in enumerate(self._live):
                if n == name:
                    return i
            return None
        if not name.startswith(self._prefix):
            return None
        try:
            idx = int(name[len(self._prefix):]) - self._start
        except ValueError:
            return None
        return idx if 0 <= idx < self._population else None

    # -- core accessor API -------------------------------------------------
    def get(self, name: str, reason: str = "api") -> ClientAgent:
        """Look up a client, materializing a parked flyweight.

        Raises KeyError for names outside the registered population.
        """
        client = self._live.get(name)
        if client is not None:
            return client
        if not self._lazy:
            raise KeyError(name)
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
        """Iterate every registered name, live or parked."""
        if self._lazy:
            prefix, start = self._prefix, self._start
            return (f"{prefix}{start + i}" for i in range(self._population))
        return iter(self._live)

    def __len__(self) -> int:
        """Registered population (live + parked)."""
        return self._population

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` is a registered client (live or parked)."""
        if name in self._live:
            return True
        return self._lazy and self.index_of(name) is not None

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
        factory = self._factory
        if factory is None:
            raise KeyError(name)
        if self.on_materialize is not None:
            self.on_materialize(name, idx)
        client = factory(name, idx)
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
        and drops the object.  Raises in eager mode (nothing to fold
        into) and for names that are not live.
        """
        if not self._lazy:
            raise RuntimeError("park() requires a lazy ClientPool "
                               "(ScaleConfig.lazy_clients)")
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
