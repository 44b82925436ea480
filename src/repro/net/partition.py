"""Partition orchestration and two-network view analysis (paper §2).

The paper's observation: even a *symmetric* partition in one of the two
networks yields an *asymmetric* partition when views are computed across
both networks — e.g. after a control-network split, a disk is in both
clients' views and both clients are in the disk's view, yet
``V(C1) != V(D)``.  :func:`combined_views` reproduces that analysis and
:func:`is_symmetric` checks the paper's equation (1).
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)


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
    names = list(views)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            mutual = a in views[b] and b in views[a]
            if mutual and views[a] != views[b]:
                return False
    return True


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


class PartitionController:
    """Imposes and heals partitions on one network.

    Works with any object exposing ``block/unblock/heal_all/reachable``
    and ``node_names`` (both :class:`~repro.net.control.ControlNetwork`
    and :class:`~repro.net.san.SanFabric` qualify).
    """

    def __init__(self, network: Any) -> None:
        self.net = network

    def isolate(self, node: str, peers: Optional[Iterable[str]] = None) -> None:
        """Cut the node from every peer (symmetric)."""
        for other in (peers if peers is not None else self.net.node_names):
            if other != node:
                self.net.block_pair(node, other)

    def split(self, *groups: Iterable[str]) -> None:
        """Symmetric partition into the given groups; cross-group traffic dies."""
        sets = [set(g) for g in groups]
        for i, ga in enumerate(sets):
            for gb in sets[i + 1:]:
                for a in ga:
                    for b in gb:
                        self.net.block_pair(a, b)

    def block_one_way(self, src: str, dst: str) -> None:
        """Asymmetric link failure: src can no longer reach dst."""
        self.net.block(src, dst)

    def heal(self) -> None:
        """Remove every imposed block."""
        self.net.heal_all()
