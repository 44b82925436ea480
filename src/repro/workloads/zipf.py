"""Zipf-distributed discrete sampling."""

from __future__ import annotations

from typing import Optional

import numpy as np


class ZipfSampler:
    """Sample ranks 0..n-1 with probability ∝ 1/(rank+1)^s.

    ``s = 0`` degenerates to the uniform distribution, which is the
    default workload; ``s ≈ 0.8-1.2`` models the hot-file skew typical
    of file system traces.
    """

    def __init__(self, n: int, s: float, rng: np.random.Generator) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if s < 0:
            raise ValueError(f"s must be non-negative, got {s}")
        self.n = n
        self.s = s
        self._rng = rng
        # The CDF of weights 1/(rank+1)^s, built in its own buffer: the
        # same IEEE operations in the same order as the plain expression
        # ``cumsum((w := 1 / arange(1, n+1)^s) / w.sum())``, without its
        # full-size temporaries: 8 B per rank at the peak.
        cdf = np.arange(1, n + 1, dtype=np.float64)
        np.power(cdf, s, out=cdf)
        np.divide(1.0, cdf, out=cdf)
        np.divide(cdf, cdf.sum(), out=cdf)
        self._cdf = np.cumsum(cdf, out=cdf)

    def sample(self) -> int:
        """Draw one rank."""
        return int(self._cdf.searchsorted(self._rng.random(), side="right"))

    def sample_many(self, k: int) -> np.ndarray:
        """Draw ``k`` ranks at once."""
        u = self._rng.random(k)
        return self._cdf.searchsorted(u, side="right").astype(int)
