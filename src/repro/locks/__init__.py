"""Logical data locks (paper §1.2, §5).

Storage Tank locking is *logical* — locks name distributed data
structures (files), not disk address ranges like the GFS ``dlock``.
Clients cache locks across operations; the server demands them back when
another client conflicts, and *steals* them (stops honoring them without
the holder's consent) only under the lease protocol's safety rules.

:mod:`repro.locks.modes` defines modes and compatibility,
:mod:`repro.locks.manager` the server-side ``LockTable``: one table of
(client, byte range, mode) grants keyed by (object, kind), where a
cached whole-file lock is the range ``FULL`` and an op-scoped byte-range
lock is held for one operation, with FIFO waiter queues, one history and
the steal operation; :mod:`repro.locks.client_table` the client-side
cached-lock view.
"""

from repro.locks.client_table import ClientLockTable
from repro.locks.manager import (CACHED, FULL, SCOPED, ByteRange, Holding,
                                 LockGrant, LockTable)
from repro.locks.modes import LockMode, compatible, satisfies

__all__ = ["ByteRange", "CACHED", "ClientLockTable", "FULL", "Holding",
           "LockGrant", "LockMode", "LockTable", "SCOPED", "compatible",
           "satisfies"]
