"""Lock modes and their compatibility matrix."""

from __future__ import annotations

import enum


class LockMode(enum.IntEnum):
    """Data lock strength, ordered so stronger modes compare greater."""

    NONE = 0
    SHARED = 1      # permits cached reads
    EXCLUSIVE = 2   # permits cached reads and write-back writes

    @property
    def short(self) -> str:
        """One-letter name used in traces."""
        return {LockMode.NONE: "-", LockMode.SHARED: "S", LockMode.EXCLUSIVE: "X"}[self]


def compatible(a: LockMode, b: LockMode) -> bool:
    """Whether two holders' modes may coexist on one object."""
    return (a == LockMode.NONE or b == LockMode.NONE
            or a == b == LockMode.SHARED)


def satisfies(held: LockMode, wanted: LockMode) -> bool:
    """Whether an already-held mode covers a requested one."""
    return held >= wanted
