"""Deterministic schedule fuzzing for the lease protocol.

``repro.simtest`` is the repo's Jepsen-style correctness engine: it
generates randomized fault+workload schedules (partitions, heals,
crashes and restarts, clock skew within ε, message-loss bursts) from a
single root seed, runs them against a full :class:`StorageTankSystem`
under a library of invariant *oracles*, and — when an oracle fires —
delta-debugs the fault schedule down to a minimal reproduction and
writes a replayable failure artifact.

The pieces:

- :mod:`repro.simtest.schedule` — the schedule data model and the
  seeded generator (every draw comes from ``RandomStreams``, so a
  schedule — and the run it produces — is a pure function of its seed);
- :mod:`repro.simtest.oracles` — the invariant library, each oracle
  mapped to a paper claim (DESIGN.md §12);
- :mod:`repro.simtest.runner` — builds the system, applies the
  schedule, drives workloads, checks the oracles once the run settles,
  and produces a canonical event-trace hash;
- :mod:`repro.simtest.shrink` — ddmin-style schedule minimization;
- :mod:`repro.simtest.corpus` — the pinned regression-seed corpus
  replayed in tier-1;
- CLI: ``python -m repro.simtest --seed N --steps K`` (and
  ``--replay <artifact>``).
"""

from __future__ import annotations

from repro.simtest.oracles import Oracle, OracleViolation, default_oracles
from repro.simtest.runner import SimRunResult, run_schedule, trace_lines
from repro.simtest.schedule import FaultStep, Schedule, generate_schedule
from repro.simtest.shrink import shrink_schedule

__all__ = [
    "FaultStep",
    "Oracle",
    "OracleViolation",
    "Schedule",
    "SimRunResult",
    "default_oracles",
    "generate_schedule",
    "run_schedule",
    "shrink_schedule",
    "trace_lines",
]
