"""Shared scenario building blocks for the experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.client.node import (
    ClientDisconnectedError,
    ClientIOError,
    ClientQuiescedError,
    StorageTankClient,
)
from repro.core.system import StorageTankSystem
from repro.net.message import DeliveryError, NackError
from repro.sim.events import Event
from repro.storage.blockmap import BLOCK_SIZE

APP_ERRORS = (ClientQuiescedError, ClientDisconnectedError,
              ClientIOError, DeliveryError, NackError)


def wall_timer() -> Callable[[], float]:
    """Start a wall-clock stopwatch; returns an elapsed-seconds reader.

    This is the repo's **single allowlisted wall-clock site** (lint rule
    RPL001).  The policy it documents: everything inside the simulation
    measures time on ``sim.clock`` / ``sim.now`` so runs are
    deterministic and comparable; only the harness may consult the wall,
    and only to report how long an experiment took to compute — a number
    that never feeds back into any simulated decision.
    """
    import time  # local import: keeps the wall clock out of module scope
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


@dataclass
class ScenarioLog:
    """Mutable scratch shared between scenario processes."""

    values: Dict[str, Any] = field(default_factory=dict)

    def set(self, key: str, value: Any) -> None:
        """Record a value once (first writer wins)."""
        self.values.setdefault(key, value)

    def get(self, key: str, default: Any = None) -> Any:
        """Fetch a recorded value."""
        return self.values.get(key, default)


def holder_with_dirty_data(system: StorageTankSystem, client_name: str,
                           path: str, log: ScenarioLog,
                           n_blocks: int = 2,
                           ) -> Generator[Event, Any, None]:
    """Create a file, open it for write and leave dirty data in cache.

    Stores ``file_id``, ``fd`` and the acked ``tag`` in the log — the
    canonical setup for every partition experiment (paper Fig. 2).
    """
    client = system.client(client_name)
    yield from client.create(path, size=n_blocks * BLOCK_SIZE)
    fd = yield from client.open_file(path, "w")
    tag = yield from client.write(fd, 0, n_blocks * BLOCK_SIZE)
    of = client.fds.get(fd)
    log.set("file_id", of.file_id)
    log.set("fd", fd)
    log.set("holder_tag", tag)


def contender_takes_over(system: StorageTankSystem, client_name: str,
                         path: str, log: ScenarioLog, start_at: float,
                         horizon: float, write_after: bool = True,
                         n_blocks: int = 2,
                         ) -> Generator[Event, Any, None]:
    """From ``start_at``, repeatedly try to open the contested file for
    write; record when the lock arrives, optionally write new data."""
    sim = system.sim
    client = system.client(client_name)
    if sim.now < start_at:
        yield sim.timeout(start_at - sim.now)
    while sim.now < horizon:
        try:
            fd = yield from client.open_file(path, "w")
            log.set("takeover_at", sim.now)
            break
        except APP_ERRORS:
            yield sim.timeout(1.0)
    else:
        return
    if write_after:
        tag = yield from client.write(fd, 0, n_blocks * BLOCK_SIZE)
        yield from client.close(fd)
        log.set("contender_tag", tag)
        log.set("contender_done_at", sim.now)


def cache_reader_loop(system: StorageTankSystem, client_name: str,
                      log: ScenarioLog, interval: float = 1.0,
                      horizon: float = 120.0, fd_key: str = "fd",
                      nbytes: int = BLOCK_SIZE,
                      ) -> Generator[Event, Any, None]:
    """A local process on the holder that keeps reading block 0 from its
    cache — the 'fenced client serves stale data' probe of §2.1."""
    sim = system.sim
    client = system.client(client_name)
    reads: List[Any] = []
    log.values["holder_reads"] = reads
    rejected = 0
    while sim.now < horizon:
        yield sim.timeout(interval)
        fd = log.get(fd_key)
        if fd is None:
            continue
        try:
            res = yield from client.read(fd, 0, nbytes)
            reads.append((sim.now, res[0][1]))
        except APP_ERRORS:
            rejected += 1
            log.values["holder_rejected"] = rejected
        except KeyError:
            break


def writer_loop(system: StorageTankSystem, client_name: str,
                log: ScenarioLog, interval: float = 2.0,
                horizon: float = 120.0, fd_key: str = "fd",
                nbytes: int = BLOCK_SIZE,
                ) -> Generator[Event, Any, None]:
    """A local process on the holder that keeps writing block 0 — keeps
    fresh dirty data in the cache so stranding is observable."""
    sim = system.sim
    client = system.client(client_name)
    tags: List[Any] = []
    log.values["holder_written_tags"] = tags
    while sim.now < horizon:
        yield sim.timeout(interval)
        fd = log.get(fd_key)
        if fd is None:
            continue
        try:
            tag = yield from client.write(fd, 0, nbytes)
            tags.append((sim.now, tag))
        except APP_ERRORS:
            pass
        except KeyError:
            break


def fsync_loop(system: StorageTankSystem, client_name: str,
               log: ScenarioLog, interval: float = 3.0,
               horizon: float = 120.0,
               ) -> Generator[Event, Any, None]:
    """A local process that periodically fsyncs the holder's dirty data
    (first SAN contact is when a fenced client discovers the fence)."""
    sim = system.sim
    client = system.client(client_name)
    attempts = 0
    while sim.now < horizon:
        yield sim.timeout(interval)
        if not isinstance(client, StorageTankClient):
            return
        try:
            yield from client.flush()
            attempts += 1
            log.values["fsync_attempts"] = attempts
        except APP_ERRORS:
            pass
