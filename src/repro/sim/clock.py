"""Rate-skewed local clocks (paper §3).

The protocol requires clocks that are *rate synchronized* with a known
error bound ε: an interval of length ``t`` measured on one computer's
clock has length within ``(t/(1+ε), t·(1+ε))`` measured on another's.
It does **not** require absolute or relative time synchronization.

We model each node with a :class:`LocalClock` that maps global ("true")
simulation time to the node's local time via a constant rate and offset:
``local = offset + rate * global``.  A :class:`ClockEnsemble` draws rates
so that every *pairwise ratio* is strictly within the bound, i.e.
``max_rate / min_rate <= 1 + ε`` (rates land in
``[1/sqrt(1+ε), sqrt(1+ε)]``).  Offsets are arbitrary — the protocol
never compares absolute local times across machines.

A clock can also be created *out of bound* (``violates_bound=True``) to
model the paper's §6 "slow computer" failure mode, where the lease
protocol alone is insufficient and fencing is required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    import numpy as np

from repro.sim.rng import RandomStreams


@dataclass
class LocalClock:
    """Affine map from global simulation time to a node's local time.

    ``rate`` is local-seconds per global-second; a slow computer has
    ``rate < 1`` (its timers take longer in global time than intended).
    """

    name: str
    rate: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"clock rate must be positive, got {self.rate}")

    def local_time(self, global_time: float) -> float:
        """Local reading at the given global instant."""
        return self.offset + self.rate * global_time

    def global_time(self, local_time: float) -> float:
        """Global instant at which the clock reads ``local_time``."""
        return (local_time - self.offset) / self.rate

    def to_global_interval(self, local_interval: float) -> float:
        """Global duration of a timer set for ``local_interval`` local seconds."""
        if local_interval < 0:
            raise ValueError("negative interval")
        return local_interval / self.rate

    def to_local_interval(self, global_interval: float) -> float:
        """Local-clock length of a global duration."""
        if global_interval < 0:
            raise ValueError("negative interval")
        return global_interval * self.rate

    def ratio_bound_with(self, other: "LocalClock") -> float:
        """Smallest ε such that this pair is rate-synchronized within ε."""
        hi = max(self.rate, other.rate)
        lo = min(self.rate, other.rate)
        return hi / lo - 1.0


class ClockEnsemble:
    """Factory for a set of clocks that jointly respect a rate bound ε.

    Parameters
    ----------
    epsilon:
        The pairwise rate-synchronization bound from the lease contract.
    streams:
        Seeded random streams; clock rates/offsets draw from the
        ``"clock"`` stream so runs are reproducible.
    max_offset:
        Magnitude bound for the arbitrary per-node offsets.
    """

    def __init__(self, epsilon: float, streams: Optional[RandomStreams] = None,
                 max_offset: float = 1000.0) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = epsilon
        self._streams = streams
        self._max_offset = max_offset
        self._clocks: Dict[str, LocalClock] = {}

    @property
    def clocks(self) -> Dict[str, LocalClock]:
        """All clocks created so far, by node name."""
        return dict(self._clocks)

    def _rng(self) -> "np.random.Generator":
        if self._streams is None:
            raise ValueError("ClockEnsemble needs RandomStreams for random clocks")
        return self._streams.get("clock")

    def create(self, name: str, rate: Optional[float] = None,
               offset: Optional[float] = None,
               violates_bound: bool = False) -> LocalClock:
        """Create (and register) the clock for node ``name``.

        Without an explicit ``rate``, one is drawn uniformly in
        ``[1/sqrt(1+ε), sqrt(1+ε)]`` so that any pair of in-bound clocks
        satisfies the ε contract.  ``violates_bound=True`` instead draws a
        pathologically slow rate below the bound (§6 slow computer).
        """
        if name in self._clocks:
            raise ValueError(f"duplicate clock for node {name!r}")
        if rate is None:
            lo = 1.0 / math.sqrt(1.0 + self.epsilon)
            hi = math.sqrt(1.0 + self.epsilon)
            if violates_bound:
                # Distinctly slower than the contract permits.
                rng = self._rng()
                rate = lo / (2.0 + rng.random() * 2.0)
            elif self.epsilon == 0.0:
                rate = 1.0
            else:
                rng = self._rng()
                rate = lo + rng.random() * (hi - lo)
        if offset is None:
            if self._streams is None:
                offset = 0.0
            else:
                offset = (self._rng().random() * 2.0 - 1.0) * self._max_offset
        clock = LocalClock(name=name, rate=rate, offset=offset)
        self._clocks[name] = clock
        return clock

    def verify_bound(self, names: Optional[List[str]] = None,
                     include_violators: bool = False) -> bool:
        """Check every registered pair is within ε.

        By construction in-bound clocks pass; this is used by tests and
        by the §6 experiment to confirm which node breaks the contract.
        """
        clocks = [self._clocks[n] for n in (names or self._clocks)]
        for i, a in enumerate(clocks):
            for b in clocks[i + 1:]:
                if a.ratio_bound_with(b) > self.epsilon + 1e-12:
                    if not include_violators:
                        return False
        return True

    def worst_pair_epsilon(self) -> float:
        """The largest pairwise ε among registered clocks."""
        clocks = list(self._clocks.values())
        worst = 0.0
        for i, a in enumerate(clocks):
            for b in clocks[i + 1:]:
                worst = max(worst, a.ratio_bound_with(b))
        return worst
