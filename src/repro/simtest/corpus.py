"""The pinned regression-seed corpus.

``corpus.json`` (shipped next to this module) pins a handful of root
seeds together with the canonical trace hash each one produced when the
corpus was last blessed.  Tier-1 (and the CI ``simtest-fuzz`` job)
replays every entry and asserts two things:

1. no oracle fires (the protocol is still safe under those schedules);
2. the trace hash is bit-identical (the simulation is still
   deterministic — any drift in event ordering, RNG plumbing or trace
   emission shows up here before it can invalidate replayability).

When a legitimate change alters event traces (new trace kinds, protocol
fixes), re-bless with ``python -m repro.simtest --update-corpus`` and
review the hash diff like any other golden-file change.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.simtest.runner import SimRunResult, run_schedule
from repro.simtest.schedule import generate_schedule

#: Schema stamp for the corpus file.
CORPUS_SCHEMA = "repro.simtest.corpus/1.0"

#: Default on-disk location (inside the installed package).
CORPUS_PATH = os.path.join(os.path.dirname(__file__), "corpus.json")

#: The blessed (seed, n_steps, cache_nodes, adversaries) tuples.  Small
#: step counts keep a full corpus replay inside the tier-1 time budget.
#: The cache-enabled entries run the metadata
#: workload against the netcache tier (cache crash/flush fault kinds
#: join the pool), so the corpus also pins the cache coherence
#: machinery's event order.  The adversarial entries possess clients
#: with Byzantine behaviors and pin the containment machinery's event
#: order (fence, attested rejoin, demand escalation, chain demands) —
#: §6's backstop, fuzz-hardened.  The last two are honest schedules that
#: reach the two ``lock-compatibility`` races PR 23 closed: a parked
#: grant outliving its server's crash (10273) and a release demand
#: overtaking an unconfirmed downgrade (24).
PINNED_RUNS = ((0, 12, 0, 0), (1, 12, 0, 0),
               (7, 16, 0, 0), (23, 16, 0, 0),
               (42, 20, 0, 0), (2, 10, 2, 0),
               (8, 10, 2, 0), (0, 12, 0, 2),
               (10, 12, 0, 2), (3, 12, 0, 0),
               (11, 12, 0, 2), (10273, 20, 2, 0),
               (24, 4, 0, 0))


@dataclass(frozen=True)
class CorpusEntry:
    """One pinned regression run."""

    seed: int
    n_steps: int
    trace_hash: str
    cache_nodes: int = 0
    adversaries: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (what ``corpus.json`` stores)."""
        return {"seed": self.seed, "n_steps": self.n_steps,
                "trace_hash": self.trace_hash,
                "cache_nodes": self.cache_nodes,
                "adversaries": self.adversaries}


@dataclass
class ReplayOutcome:
    """Result of replaying one corpus entry."""

    entry: CorpusEntry
    result: SimRunResult

    @property
    def hash_matches(self) -> bool:
        return self.result.trace_hash == self.entry.trace_hash

    @property
    def ok(self) -> bool:
        return self.hash_matches and self.result.ok


def load_corpus(path: Optional[str] = None) -> List[CorpusEntry]:
    """Read the pinned corpus (empty if never blessed).  An
    ``"intents"`` key on an entry (written while the protocol had a
    split-op variant) is ignored."""
    corpus_path = path or CORPUS_PATH
    if not os.path.exists(corpus_path):
        return []
    with open(corpus_path, "r", encoding="utf-8") as fh:
        doc: Mapping[str, Any] = json.load(fh)
    if doc.get("schema") != CORPUS_SCHEMA:
        raise ValueError(f"{corpus_path}: expected schema "
                         f"{CORPUS_SCHEMA!r}, got {doc.get('schema')!r}")
    return [CorpusEntry(seed=int(e["seed"]), n_steps=int(e["n_steps"]),
                        trace_hash=str(e["trace_hash"]),
                        cache_nodes=int(e.get("cache_nodes", 0)),
                        adversaries=int(e.get("adversaries", 0)))
            for e in doc.get("entries", [])]


def replay_entry(entry: CorpusEntry) -> ReplayOutcome:
    """Re-run one pinned seed and compare against its blessing."""
    schedule = generate_schedule(entry.seed, entry.n_steps,
                                 cache_nodes=entry.cache_nodes,
                                 adversaries=entry.adversaries)
    return ReplayOutcome(entry=entry, result=run_schedule(schedule))


def replay_corpus(path: Optional[str] = None) -> List[ReplayOutcome]:
    """Replay every pinned entry."""
    return [replay_entry(e) for e in load_corpus(path)]


def bless_corpus(path: Optional[str] = None) -> List[CorpusEntry]:
    """Regenerate the corpus file from :data:`PINNED_RUNS`.

    Refuses to bless a run in which an oracle fired — the corpus pins
    *clean* runs; failing schedules belong in failure artifacts.
    """
    entries: List[CorpusEntry] = []
    for seed, n_steps, cache_nodes, adversaries in PINNED_RUNS:
        result = run_schedule(generate_schedule(seed, n_steps,
                                                cache_nodes=cache_nodes,
                                                adversaries=adversaries))
        if not result.ok:
            raise ValueError(
                f"refusing to bless seed {seed}: oracles fired "
                f"({result.oracle_names()})")
        entries.append(CorpusEntry(seed=seed, n_steps=n_steps,
                                   trace_hash=result.trace_hash,
                                   cache_nodes=cache_nodes,
                                   adversaries=adversaries))
    doc = {"schema": CORPUS_SCHEMA,
           "entries": [e.to_dict() for e in entries]}
    with open(path or CORPUS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entries
