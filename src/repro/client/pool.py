"""Flyweight client records and the :class:`ClientPool` accessor.

The pool is the single public face for "the clients of a system" — the
typed accessor that replaces :class:`~repro.core.system.StorageTankSystem`'s
historical ``clients``/``agents`` dict pair — *and* the flyweight store
that makes million-client populations affordable.

Clients are *registered*, not built.  A registered-but-unbuilt
("parked") client is at most a lease-lapse record in the
:class:`~repro.lease.pooled.PooledLeaseService` and costs **zero**
heap-allocated sim objects and **zero** kernel heap entries.  Names are
derived from ``prefix + index`` on demand, so a million parked clients
do not even pay for a million name strings.  Every installation builds
its clients on first touch; building everyone is ``get`` on every name.

``get(name)`` on a parked client *materializes* it: one shared factory
closure (no per-client closures at registration time) builds the full
client for the installation's protocol.  Materialization is one-way: a
built client stays built for the rest of the run.

Inbound traffic wakes a parked client through the control network's
lazy-resolver hook (one resolver for the whole population), so a NACK
or server demand addressed to a parked name materializes it instead of
vanishing.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.client.node import StorageTankClient
    from repro.protocols.frangipani import FrangipaniClientAgent
    from repro.protocols.nfs_polling import NfsPollingClient
    from repro.protocols.vleases import VLeaseClientAgent

__all__ = ["ClientPool", "slot_of"]

#: A pooled client; the installation's protocol decides which kind.
Client = Union["StorageTankClient", "NfsPollingClient"]

#: A protocol agent attached beside a client (heartbeater, renewer).
Agent = Union["FrangipaniClientAgent", "VLeaseClientAgent"]


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


class ClientPool:
    """Typed accessor over a system's client population.

    ``population`` clients are registered behind one ``factory(name,
    idx)``, which builds the full facade on first touch.  Registration
    allocates nothing per client — no client objects, no name strings,
    no kernel events.

    - ``pool.get(name)`` returns the client (materializing if parked);
    - ``pool.iter_active()`` yields only live (materialized) clients;
    - ``len(pool)`` is the registered population, live or parked.
    """

    def __init__(self, population: int,
                 factory: Callable[[str, int], Client],
                 prefix: str = "c", start: int = 1) -> None:
        if population < 0:
            raise ValueError(f"population must be >= 0, got {population}")
        self._live: Dict[str, Client] = {}
        self._agents: Dict[str, Agent] = {}
        self._population = population
        self._prefix = prefix
        self._start = start
        self._factory = factory
        #: invoked with (name, idx) just before the factory runs
        self.on_materialize: Optional[Callable[[str, int], None]] = None
        self.materializations = 0
        #: wake reason -> count ("api", "datagram", ...)
        self.wake_reasons: Dict[str, int] = {}

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
    def get(self, name: str, reason: str = "api") -> Client:
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

    def peek(self, name: str) -> Optional[Client]:
        """The live client for ``name``, or None — never materializes."""
        return self._live.get(name)

    def iter_active(self) -> Iterator[Client]:
        """Iterate live (materialized) clients in activation order."""
        return iter(self._live.values())

    def live_names(self) -> List[str]:
        """Names of live clients in activation order."""
        return list(self._live)

    def live_items(self) -> List[Tuple[str, Client]]:
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
        """Number of registered clients not yet built."""
        return self._population - len(self._live)

    # -- agents ------------------------------------------------------------
    def set_agent(self, name: str, agent: Agent) -> None:
        """Attach a protocol agent (heartbeater, renewer) for a client."""
        self._agents[name] = agent

    def agent_for(self, name: str) -> Optional[Agent]:
        """The protocol agent for a client, or None."""
        return self._agents.get(name)

    # -- flyweight lifecycle -----------------------------------------------
    def _materialize(self, name: str, idx: int, reason: str) -> Client:
        if self.on_materialize is not None:
            self.on_materialize(name, idx)
        client = self._factory(name, idx)
        self._live[name] = client
        self.materializations += 1
        self.wake_reasons[reason] = self.wake_reasons.get(reason, 0) + 1
        return client
