"""Synthetic "modern file system workload" generation (paper §6).

The paper's stated next step was to validate the lease design against
measured file system workloads.  No IBM traces ship with this
reproduction, so this module synthesizes workloads with the statistical
structure the trace literature of the era reports (Baker et al. '91,
Roselli et al. '00):

- **file sizes** follow a lognormal body with a small number of large
  files dominating bytes;
- access is **session-structured**: open → a burst of sequential or
  random I/O → close, rather than uniform single operations;
- popularity is **Zipf-skewed** with a distinct hot set;
- most files are read-mostly, a minority are write-hot;
- think times between sessions are heavy-tailed (lognormal).

A :class:`TraceSynthesizer` turns these knobs into a concrete
:class:`WorkloadTrace` — a reproducible list of per-client sessions —
and :class:`TraceReplayer` replays one against a built system, so the
same trace can drive every protocol for apples-to-apples comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.client.node import StorageTankClient
from repro.core.system import StorageTankSystem
from repro.harness.common import APP_ERRORS
from repro.sim.events import Event
from repro.storage.blockmap import BLOCK_SIZE
from repro.workloads.generator import WorkloadStats
from repro.workloads.zipf import ZipfSampler


@dataclass(frozen=True)
class TraceOp:
    """One I/O inside a session."""

    op: str            # "read" | "write"
    offset: int        # bytes
    nbytes: int


@dataclass(frozen=True)
class Session:
    """One open→I/O→close burst by one client."""

    client: str
    path: str
    mode: str                  # "r" | "w"
    start_after: float         # think time before the session (seconds)
    ops: Tuple[TraceOp, ...]


@dataclass
class WorkloadTrace:
    """A complete synthetic trace: files plus per-client session lists."""

    files: Dict[str, int]                  # path -> size bytes
    sessions: Dict[str, List[Session]]     # client -> ordered sessions
    seed: int = 0

    @property
    def total_sessions(self) -> int:
        """Sessions across all clients."""
        return sum(len(v) for v in self.sessions.values())

    @property
    def total_ops(self) -> int:
        """I/O operations across all sessions."""
        return sum(len(s.ops) for v in self.sessions.values() for s in v)

    def bytes_by_op(self) -> Dict[str, int]:
        """Total bytes read/written by the trace."""
        out = {"read": 0, "write": 0}
        for v in self.sessions.values():
            for s in v:
                for op in s.ops:
                    out[op.op] += op.nbytes
        return out


@dataclass(frozen=True)
class TraceProfile:
    """Statistical knobs for synthesis."""

    n_files: int = 50
    # lognormal size body (parameters of ln(size in blocks))
    size_mu: float = 1.2
    size_sigma: float = 1.0
    max_file_blocks: int = 512
    zipf_s: float = 0.9               # popularity skew
    write_hot_fraction: float = 0.2   # fraction of files that take writes
    sessions_per_client: int = 40
    ops_per_session_mean: float = 6.0
    sequential_fraction: float = 0.6  # sessions doing sequential I/O
    io_blocks_mean: float = 2.0
    think_mu: float = -1.0            # lognormal think time (seconds)
    think_sigma: float = 1.0


class TraceSynthesizer:
    """Deterministic trace generation from a seed and a profile."""

    def __init__(self, profile: Optional[TraceProfile] = None, seed: int = 0) -> None:
        self.profile = profile or TraceProfile()
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def synthesize(self, clients: Sequence[str], prefix: str = "/trace",
                   ) -> WorkloadTrace:
        """Build a trace for the given client names."""
        p = self.profile
        rng = self._rng
        # File population with lognormal sizes.
        files: Dict[str, int] = {}
        sizes_blocks = np.clip(
            np.round(np.exp(rng.normal(p.size_mu, p.size_sigma, p.n_files))),
            1, p.max_file_blocks).astype(int)
        paths = [f"{prefix}/f{i:04d}" for i in range(p.n_files)]
        for path, blocks in zip(paths, sizes_blocks):
            files[path] = int(blocks) * BLOCK_SIZE
        # A write-hot subset; everything else is read-only to writers.
        n_hot = max(1, int(p.n_files * p.write_hot_fraction))
        write_hot = set(rng.choice(p.n_files, size=n_hot, replace=False))

        zipf = ZipfSampler(p.n_files, p.zipf_s, rng)
        sessions: Dict[str, List[Session]] = {}
        for client in clients:
            out: List[Session] = []
            for _ in range(p.sessions_per_client):
                fidx = zipf.sample()
                path = paths[fidx]
                size_blocks = files[path] // BLOCK_SIZE
                writing = fidx in write_hot and rng.random() < 0.5
                n_ops = max(1, int(rng.poisson(p.ops_per_session_mean)))
                sequential = rng.random() < p.sequential_fraction
                ops = self._make_ops(rng, n_ops, size_blocks, writing,
                                     sequential, p)
                think = float(np.exp(rng.normal(p.think_mu, p.think_sigma)))
                out.append(Session(client=client, path=path,
                                   mode="w" if writing else "r",
                                   start_after=think, ops=tuple(ops)))
            sessions[client] = out
        return WorkloadTrace(files=files, sessions=sessions, seed=self.seed)

    @staticmethod
    def _make_ops(rng: np.random.Generator, n_ops: int, size_blocks: int,
                  writing: bool,
                  sequential: bool, p: TraceProfile) -> List[TraceOp]:
        ops: List[TraceOp] = []
        cursor = 0
        for _ in range(n_ops):
            io_blocks = max(1, int(rng.poisson(p.io_blocks_mean)))
            io_blocks = min(io_blocks, size_blocks)
            if sequential:
                start = cursor % max(size_blocks - io_blocks + 1, 1)
                cursor = start + io_blocks
            else:
                start = int(rng.integers(0, max(size_blocks - io_blocks + 1, 1)))
            kind = "write" if (writing and rng.random() < 0.6) else "read"
            ops.append(TraceOp(op=kind, offset=start * BLOCK_SIZE,
                               nbytes=io_blocks * BLOCK_SIZE))
        return ops


class TraceReplayer:
    """Replays a :class:`WorkloadTrace` against a built system."""

    def __init__(self, system: StorageTankSystem, trace: WorkloadTrace) -> None:
        self.system = system
        self.trace = trace
        self.stats: Dict[str, WorkloadStats] = {
            c: WorkloadStats() for c in trace.sessions}

    def populate(self) -> Generator[Event, Any, None]:
        """Create the trace's file population (one bootstrap client)."""
        first = self.system.client(self.system.pool.name_of(0))
        for path, size in self.trace.files.items():
            yield from first.create(path, size=size)

    def replay_client(self, client_name: str) -> Generator[Event, Any, WorkloadStats]:
        """Replay one client's session list (run as a process)."""
        sim = self.system.sim
        client = self.system.client(client_name)
        stats = self.stats[client_name]
        for session in self.trace.sessions[client_name]:
            yield sim.timeout(session.start_after)
            stats.ops_attempted += 1
            try:
                fd = yield from client.open_file(session.path, session.mode)
            except APP_ERRORS:
                stats.ops_rejected += 1
                continue
            started = sim.now
            ok = True
            for op in session.ops:
                stats.ops_attempted += 1
                try:
                    if op.op == "read":
                        yield from client.read(fd, op.offset, op.nbytes)
                        stats.reads += 1
                    else:
                        yield from client.write(fd, op.offset, op.nbytes)
                        stats.writes += 1
                    stats.ops_succeeded += 1
                except APP_ERRORS:
                    stats.ops_rejected += 1
                    ok = False
                    break
                except KeyError:
                    ok = False
                    break
            try:
                yield from client.close(fd)
                if ok:
                    stats.ops_succeeded += 1
                    stats.latencies.append(sim.now - started)
            except (KeyError, *APP_ERRORS):
                stats.ops_rejected += 1
        return stats

    def run(self, hard_limit: float = 3600.0) -> Dict[str, WorkloadStats]:
        """Populate, replay every client concurrently, return stats."""
        sim = self.system.sim
        boot = self.system.spawn(self.populate(), "trace:populate")
        sim.run_until_event(boot, hard_limit=hard_limit)
        procs = [self.system.spawn(self.replay_client(c), f"trace:{c}")
                 for c in self.trace.sessions]
        for p in procs:
            sim.run_until_event(p, hard_limit=hard_limit)
        return self.stats
