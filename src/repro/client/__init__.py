"""The Storage Tank client.

A client node mounts the file system by talking to a server over the
control network for metadata and locks, and performs all data I/O
directly to shared SAN devices (paper §1.1).  It write-back caches data
pages (:mod:`repro.client.cache`), caches locks across operations, and
operates strictly under the lease state machine: new requests are
admitted only in lease phases 1-2, phase 3 quiesces, phase 4 flushes,
and expiry invalidates the cache and cedes all locks (§3.2).

Local applications use the POSIX-flavoured generator API on
:class:`~repro.client.node.StorageTankClient` (``open_file`` / ``read``
/ ``write`` / ``close`` / ``flush``).
"""

from repro.client.cache import CacheStats, Page, PageCache
from repro.client.openfile import FdTable, OpenFile
from repro.client.pool import ClientPool
from repro.client.node import (
    ClientConfig,
    ClientDisconnectedError,
    ClientIOError,
    ClientQuiescedError,
    StorageTankClient,
)

__all__ = [
    "CacheStats",
    "ClientConfig",
    "ClientDisconnectedError",
    "ClientIOError",
    "ClientPool",
    "ClientQuiescedError",
    "FdTable",
    "OpenFile",
    "Page",
    "PageCache",
    "StorageTankClient",
]
