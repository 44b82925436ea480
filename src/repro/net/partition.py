"""Partitions on one network, and two-network view analysis (paper §2).

:class:`LinkTable` is a network's directional blocked-pair set and the
partitions it can impose (a one-way cut, a symmetric cut, an isolated
node, a split into groups).  It is the base class of both fabrics,
:class:`~repro.net.control.ControlNetwork` and
:class:`~repro.net.san.SanFabric`, so one table of cuts serves each.

The paper's observation: even a *symmetric* partition in one of the two
networks yields an *asymmetric* partition when views are computed across
both networks — e.g. after a control-network split, a disk is in both
clients' views and both clients are in the disk's view, yet
``V(C1) != V(D)``.  :func:`combined_views` reproduces that analysis and
:func:`is_symmetric` checks the paper's equation (1).
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)


class _Reachability:
    """Minimal protocol a network must offer for view analysis."""

    def reachable(self, src: str, dst: str) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


def combined_views(entities: Sequence[str],
                   networks: Sequence[Tuple["_Reachability", Set[str]]],
                   ) -> Dict[str, FrozenSet[str]]:
    """Per-entity views across several networks.

    ``networks`` is a sequence of ``(network, members)`` pairs; entity B
    is in ``V(A)`` iff on *some* network both are members and datagrams
    flow both ways between them.  Every entity is in its own view.
    """
    views: Dict[str, Set[str]] = {e: {e} for e in entities}
    for net, members in networks:
        for a in entities:
            if a not in members:
                continue
            for b in entities:
                if b == a or b not in members:
                    continue
                if net.reachable(a, b) and net.reachable(b, a):
                    views[a].add(b)
    return {e: frozenset(v) for e, v in views.items()}


def is_symmetric(views: Dict[str, FrozenSet[str]]) -> bool:
    """Paper equation (1): A∈V(B) ∧ B∈V(A) ⇔ V(A)=V(B), for all pairs."""
    return not asymmetric_witnesses(views)


def asymmetric_witnesses(views: Dict[str, FrozenSet[str]]) -> List[Tuple[str, str]]:
    """All pairs violating equation (1) — the asymmetry evidence for E2."""
    out = []
    names = list(views)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            mutual = a in views[b] and b in views[a]
            if mutual and views[a] != views[b]:
                out.append((a, b))
    return out


class LinkTable:
    """A network's imposed partitions: a directional blocked-pair set.

    ``(src, dst)`` in the set means a src→dst transfer does not arrive.
    A subclass names its nodes in :attr:`node_names` (the default peers
    of :meth:`isolate`), calls :meth:`_attached` with each node that
    joins, and reads ``self._blocked`` on its hot path.
    """

    def __init__(self) -> None:
        self._blocked: Set[Tuple[str, str]] = set()
        # Nodes isolate() cut from every peer: a node that attaches
        # later is cut from them too, until heal_all().
        self._isolated: Set[str] = set()

    @property
    def node_names(self) -> List[str]:
        """Every node on the network."""
        raise NotImplementedError

    def block(self, src: str, dst: str) -> None:
        """Asymmetric link failure: src can no longer reach dst."""
        self._blocked.add((src, dst))

    def unblock(self, src: str, dst: str) -> None:
        """Restore src→dst delivery."""
        self._blocked.discard((src, dst))

    def block_pair(self, a: str, b: str) -> None:
        """Symmetric cut between two nodes."""
        self.block(a, b)
        self.block(b, a)

    def unblock_pair(self, a: str, b: str) -> None:
        """Heal a symmetric cut."""
        self.unblock(a, b)
        self.unblock(b, a)

    def heal_all(self) -> None:
        """Remove every imposed block and isolation."""
        self._blocked.clear()
        self._isolated.clear()

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a transfer sent now from src would arrive at dst."""
        return (src, dst) not in self._blocked

    def isolate(self, node: str, peers: Optional[Iterable[str]] = None) -> None:
        """Cut the node from every peer (symmetric).  Without ``peers``
        that is every node on the network, and every node that attaches
        later, until :meth:`heal_all`."""
        if peers is None:
            self._isolated.add(node)
            peers = self.node_names
        for other in peers:
            if other != node:
                self.block_pair(node, other)

    def _attached(self, name: str) -> None:
        """Cut a node that has just attached from every isolated node."""
        for node in self._isolated:
            if node != name:
                self.block_pair(node, name)

    def split(self, *groups: Iterable[str]) -> None:
        """Symmetric partition into the given groups; cross-group traffic dies."""
        sets = [set(g) for g in groups]
        for i, ga in enumerate(sets):
            for gb in sets[i + 1:]:
                for a in ga:
                    for b in gb:
                        self.block_pair(a, b)
