"""The shard map: hash slots → owning server, versioned by a map epoch.

Paths hash onto a fixed ring of ``N_SLOTS`` slots; the map assigns each
slot to one metadata server.  Ownership moves slot-wise (takeover,
failback, administrative rebalancing) and every move bumps the *map
epoch* — a monotonically increasing version number that servers quote
in ``WRONG_OWNER`` NACKs and clients compare when deciding whether a
fetched map is news.

``N_SLOTS = 60`` is divisible by every cluster size up to 6, so the
*initial* map (``slots[i] = servers[i % n]``) spreads paths evenly:
``(h % 60) % n == h % n`` whenever ``n`` divides 60.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple

from repro.sim.rng import _stable_hash

#: Number of hash slots on the ring (divisible by 1..6 cluster sizes).
N_SLOTS = 60


def slot_of_path(path: str) -> int:
    """The ring slot a path hashes onto (stable across runs)."""
    return _stable_hash(path) % N_SLOTS


@dataclass(frozen=True)
class ShardMap:
    """One immutable version of the slot → server assignment."""

    epoch: int
    slots: Tuple[str, ...]

    @classmethod
    def initial(cls, servers: Iterable[str]) -> "ShardMap":
        """Epoch-1 map: slot ``i`` belongs to ``servers[i % n]`` (even
        whenever ``n`` divides the ring, see the module docstring)."""
        names = tuple(servers)
        if not names:
            raise ValueError("need at least one server")
        return cls(epoch=1,
                   slots=tuple(names[i % len(names)] for i in range(N_SLOTS)))

    # -- queries ------------------------------------------------------------
    def owner_of_slot(self, slot: int) -> str:
        """The server currently owning a slot."""
        return self.slots[slot % len(self.slots)]

    def owner_of_path(self, path: str) -> str:
        """The server currently owning a path's slot."""
        return self.owner_of_slot(slot_of_path(path))

    def slots_of(self, server: str) -> Tuple[int, ...]:
        """Every slot assigned to a server."""
        return tuple(i for i, s in enumerate(self.slots) if s == server)

    def owners(self) -> Tuple[str, ...]:
        """The distinct servers holding at least one slot (sorted)."""
        return tuple(sorted(set(self.slots)))

    # -- evolution ----------------------------------------------------------
    def reassign(self, slots: Iterable[int], to: str) -> "ShardMap":
        """A new map (epoch + 1) with the given slots moved to ``to``."""
        new = list(self.slots)
        for s in slots:
            new[s % len(new)] = to
        return ShardMap(epoch=self.epoch + 1, slots=tuple(new))

    # -- wire format ---------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """Message-payload form."""
        return {"epoch": self.epoch, "slots": list(self.slots)}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ShardMap":
        """Rebuild from a message payload."""
        return cls(epoch=int(payload["epoch"]),
                   slots=tuple(payload["slots"]))
