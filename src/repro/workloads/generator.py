"""Per-client workload driver processes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.client.node import (
    ClientDisconnectedError,
    ClientIOError,
    ClientQuiescedError,
    StorageTankClient,
)
from repro.core.config import WorkloadConfig
from repro.core.system import StorageTankSystem
from repro.net.message import DeliveryError, NackError
from repro.protocols.nfs_polling import NfsPollingClient
from repro.sim.events import Event
from repro.storage.blockmap import BLOCK_SIZE
from repro.workloads.zipf import ZipfSampler

#: Chance that a data op closes its descriptor afterwards (the next op
#: on that file reopens it).
REOPEN_PROBABILITY = 0.05


@dataclass
class WorkloadStats:
    """Per-driver outcome counters and latencies."""

    ops_attempted: int = 0
    ops_succeeded: int = 0
    ops_rejected: int = 0       # quiesced/disconnected (lease protecting us)
    ops_failed: int = 0         # transport-level failures
    reads: int = 0
    writes: int = 0
    meta_reads: int = 0         # lookup/getattr/readdir ops
    meta_mutates: int = 0       # unlink+recreate ops
    latencies: List[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        """Mean completed-op latency in global seconds."""
        return float(np.mean(self.latencies)) if self.latencies else 0.0


def populate_files(system: StorageTankSystem,
                   cfg: Optional[WorkloadConfig] = None,
                   prefix: str = "/wl",
                   ) -> Generator[Event, Any, List[str]]:
    """Create the shared working set (run as a process before drivers).

    Uses the first client to issue the creates, which also bootstraps
    that client's lease.
    """
    wcfg = cfg or system.config.workload
    first = system.client(system.pool.name_of(0))
    paths = []
    for i in range(wcfg.n_files):
        path = f"{prefix}/f{i:04d}"
        yield from first.create(path, size=wcfg.file_size_blocks * BLOCK_SIZE)
        paths.append(path)
    return paths


class WorkloadDriver:
    """One application process on one client."""

    def __init__(self, system: StorageTankSystem, client_name: str,
                 paths: List[str], cfg: Optional[WorkloadConfig] = None,
                 stream: Optional[str] = None) -> None:
        self.system = system
        self.client = system.client(client_name)
        self.paths = paths
        self.cfg = cfg or system.config.workload
        self.rng = system.streams.get(stream or f"workload.{client_name}")
        self.zipf = ZipfSampler(len(paths), self.cfg.zipf_s, self.rng)
        self.stats = WorkloadStats()
        self._fds: Dict[str, int] = {}
        self._meta_seq = 0
        self._scratch: Optional[str] = None
        self._stopped = False

    def stop(self) -> None:
        """Ask the driver loop to exit after the current op."""
        self._stopped = True

    def run(self, duration: float) -> Generator[Event, Any, WorkloadStats]:
        """Drive operations for ``duration`` global seconds."""
        sim = self.system.sim
        deadline = sim.now + duration
        while sim.now < deadline and not self._stopped:
            think = float(self.rng.exponential(self.cfg.think_time))
            yield sim.timeout(min(think, max(deadline - sim.now, 1e-6)))
            if sim.now >= deadline or self._stopped:
                break
            yield from self._one_op()
        return self.stats

    def _one_op(self) -> Generator[Event, Any, None]:
        sim = self.system.sim
        path = self.paths[self.zipf.sample()]
        # The > 0.0 guard keeps the RNG draw sequence of pre-existing
        # (data-only) workload configurations bit-identical.
        if (self.cfg.meta_fraction > 0.0
                and self.rng.random() < self.cfg.meta_fraction):
            yield from self._one_meta_op(path)
            return
        is_read = self.rng.random() < self.cfg.read_fraction
        self.stats.ops_attempted += 1
        started = sim.now
        try:
            fd = yield from self._fd_for(path, "r" if is_read else "w")
            max_block = max(self.cfg.file_size_blocks - self.cfg.io_blocks, 1)
            block = int(self.rng.integers(0, max_block))
            offset = block * BLOCK_SIZE
            nbytes = self.cfg.io_blocks * BLOCK_SIZE
            if is_read:
                yield from self.client.read(fd, offset, nbytes)
                self.stats.reads += 1
            else:
                yield from self.client.write(fd, offset, nbytes)
                self.stats.writes += 1
            if self.rng.random() < REOPEN_PROBABILITY:
                yield from self.client.close(fd)
                self._fds.pop(self._fd_key(path), None)
            self.stats.ops_succeeded += 1
            self.stats.latencies.append(sim.now - started)
        except (ClientQuiescedError, ClientDisconnectedError):
            self.stats.ops_rejected += 1
            self._fds.clear()  # descriptors stale after lease trouble
        except ClientIOError:
            self.stats.ops_failed += 1
        except (DeliveryError, NackError):
            self.stats.ops_failed += 1
            self._fds.clear()
        except KeyError:
            self._fds.clear()  # fd table reset under us

    def _one_meta_op(self, path: str) -> Generator[Event, Any, None]:
        """One metadata op near ``path`` — a read (lookup/getattr/readdir)
        or, with probability ``meta_mutate_fraction``, a create+unlink
        pair that drives the server's cache-invalidation barrier.

        Mutations never touch the shared data files (unlinking a file a
        concurrent writer has open is outside the workload's contract
        with the consistency audit); they cycle a zero-length scratch
        path in the same directory, so cached directory listings and the
        scratch path's own lookup entries go stale-and-invalidated while
        data I/O is untouched.  Create and unlink alternate across
        *separate* ops and each is chased with a lookup of the scratch
        path: the namespace stays perturbed for whole think-time windows
        and the probe forces the cache tier to answer for the mutated
        path — a stale entry that survives the invalidation barrier is
        served to the oracle rather than idling unread.
        """
        sim = self.system.sim
        self.stats.ops_attempted += 1
        started = sim.now
        mutate = (self.cfg.meta_mutate_fraction > 0.0
                  and self.rng.random() < self.cfg.meta_mutate_fraction)
        try:
            if mutate:
                if self._scratch is None:
                    self._meta_seq += 1
                    scratch = (f"{path}.{self.client.name}"
                               f".m{self._meta_seq:04d}")
                    yield from self.client.create(scratch, size=0)
                    self._scratch = scratch
                else:
                    scratch, self._scratch = self._scratch, None
                    yield from self.client.unlink(scratch)
                self.stats.meta_mutates += 1
                try:
                    # Probe the mutated path; after the unlink the
                    # correct answer is a not-found NACK.
                    yield from self.client.lookup(scratch)
                except NackError:
                    pass
            else:
                kind = int(self.rng.integers(0, 3))
                if kind == 0:
                    yield from self.client.lookup(path)
                elif kind == 1:
                    yield from self.client.getattr(path)
                else:
                    yield from self.client.readdir(
                        path.rsplit("/", 1)[0] or "/")
                self.stats.meta_reads += 1
            self.stats.ops_succeeded += 1
            self.stats.latencies.append(sim.now - started)
        except (ClientQuiescedError, ClientDisconnectedError):
            self.stats.ops_rejected += 1
            self._fds.clear()
        except ClientIOError:
            self.stats.ops_failed += 1
        except (DeliveryError, NackError):
            # Racing unlinks/creates on a shared namespace nack benignly
            # (not-found / exists); count and move on.
            self.stats.ops_failed += 1

    def _fd_key(self, path: str) -> str:
        return path

    def _fd_for(self, path: str, mode: str) -> Generator[Event, Any, int]:
        # Writers need a 'w' open instance; cache one fd per path, upgrading
        # to 'w' when first needed.
        key = self._fd_key(path)
        fd = self._fds.get(key)
        if fd is not None:
            try:
                of = self.client.fds.get(fd)
                if mode == "r" or of.mode == "w":
                    return fd
                yield from self.client.close(fd)
            except KeyError:
                pass
            self._fds.pop(key, None)
        fd = yield from self.client.open_file(path, "w" if mode == "w" else "r")
        self._fds[key] = fd
        return fd


def run_workload(system: StorageTankSystem, duration: float,
                 paths: Optional[List[str]] = None,
                 cfg: Optional[WorkloadConfig] = None,
                 warmup: float = 0.0,
                 ) -> Dict[str, WorkloadStats]:
    """Populate files, attach one driver per client, run to completion.

    Convenience wrapper used by examples and benches; returns per-client
    stats.  The simulation is advanced internally.
    """
    sim = system.sim
    wcfg = cfg or system.config.workload
    created: Dict[str, Any] = {}

    def bootstrap() -> Generator[Event, Any, None]:
        ps = yield from populate_files(system, wcfg)
        created["paths"] = ps

    boot = system.spawn(bootstrap(), "populate")
    sim.run_until_event(boot, hard_limit=sim.now + 600)
    file_paths = paths or created["paths"]

    if warmup > 0:
        sim.run(until=sim.now + warmup)

    drivers = {name: WorkloadDriver(system, name, file_paths, wcfg)
               for name in system.config.client_names()}
    procs = [system.spawn(d.run(duration), f"wl:{name}")
             for name, d in drivers.items()]
    for p in procs:
        sim.run_until_event(p, hard_limit=sim.now + duration * 20 + 600)
    return {name: d.stats for name, d in drivers.items()}
