"""Pinned regression schedules, shipped as replay artifacts.

Each artifact under ``tests/simtest/artifacts/`` is a shrunk schedule
that once exposed (or guards against) a protocol bug — cache-tier
coherence races and Byzantine containment holes alike — stored in the
same ``repro.simtest/1.0`` format the fuzzer writes, so
``python -m repro.simtest --replay <artifact>`` reproduces it from the
command line.  The tests replay every artifact and assert the run is
clean and the trace hash is bit-identical; companion knock-out tests
re-break the fixed mechanism (applying the artifact's recorded
``knockout_break_mode``, or stubbing a handler) and assert the schedule
still catches the bug (the pin has teeth, not just a hash).
"""

from __future__ import annotations

import dataclasses
import glob
import os

import pytest

import repro.netcache.node as netcache_node
from repro.obs.artifact import load_artifact
from repro.simtest.runner import run_schedule
from repro.simtest.schedule import Schedule

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")
ARTIFACTS = sorted(glob.glob(os.path.join(ARTIFACT_DIR, "*.json")))


def _load(name: str) -> dict:
    return load_artifact(os.path.join(ARTIFACT_DIR, name))


def test_artifacts_present():
    names = [os.path.basename(p) for p in ARTIFACTS]
    assert "netcache-reassert-after-server-restart.json" in names
    assert "netcache-crash-invalidation-race.json" in names
    assert "byz-ignore-expiry-attested-unfence.json" in names
    assert "byz-replay-stale-grant-validated-reassert.json" in names
    assert "byz-suppress-release-demand-escalation.json" in names
    assert "intent-parked-grant-missed-epoch.json" in names
    assert "parked-grant-outlives-server-crash.json" in names


@pytest.mark.parametrize("path", ARTIFACTS,
                         ids=[os.path.basename(p) for p in ARTIFACTS])
def test_artifact_replays_clean_and_bit_identical(path):
    doc = load_artifact(path)
    schedule = Schedule.from_dict(doc["schedule"])
    if os.path.basename(path).startswith("netcache-"):
        assert schedule.cache_nodes > 0, "netcache artifacts run the cache tier"
    result = run_schedule(schedule)
    assert result.ok, result.oracle_names()
    assert result.trace_hash == doc["trace_hash"], \
        f"{os.path.basename(path)}: trace drifted"


def test_invalidation_artifact_catches_dropped_invalidations(monkeypatch):
    """With cache invalidation stubbed out the pinned schedule serves a
    stale entry and the oracle must say so."""
    doc = _load("netcache-crash-invalidation-race.json")
    schedule = Schedule.from_dict(doc["schedule"])
    monkeypatch.setattr(netcache_node.MetadataCacheNode, "_h_invalidate",
                        lambda self, msg: ("ack", {}))
    result = run_schedule(schedule)
    assert "cache-serves-no-stale-entry" in result.oracle_names()


BYZ_ARTIFACTS = [
    "byz-ignore-expiry-attested-unfence.json",
    "byz-replay-stale-grant-validated-reassert.json",
    "byz-suppress-release-demand-escalation.json",
]


#: Pinned §6 restart schedules: a client that never sees the server's
#: epoch on its ACKs never reasserts, and double-holds its locks.
EPOCH_ARTIFACTS = [
    "netcache-reassert-after-server-restart.json",
    "intent-parked-grant-missed-epoch.json",
]


#: A transaction parked at a server dies with it (PR 23): left running,
#: it grants in the wiped lock table and answers in the next epoch.
CRASH_ARTIFACTS = ["parked-grant-outlives-server-crash.json"]


@pytest.mark.parametrize("name",
                         BYZ_ARTIFACTS + EPOCH_ARTIFACTS + CRASH_ARTIFACTS)
def test_artifact_catches_reverted_fix(name):
    """Re-breaking the fix each artifact was shrunk against (its
    recorded ``knockout_break_mode``) makes the pinned schedule fire
    the recorded oracles again — the knock-out direction of the pin."""
    doc = _load(name)
    schedule = Schedule.from_dict(doc["schedule"])
    break_mode = doc["extra"]["knockout_break_mode"]
    expected = doc["extra"]["knockout_oracles"]
    result = run_schedule(dataclasses.replace(schedule,
                                              break_mode=break_mode))
    assert not result.ok, f"{name}: knock-out ran clean"
    assert set(expected) & set(result.oracle_names()), \
        (name, expected, result.oracle_names())


@pytest.mark.parametrize("name", BYZ_ARTIFACTS)
def test_byz_artifact_is_adversarial_and_1_minimal_sized(name):
    """Adversarial artifacts really contain a Byzantine possession step
    and stay small (they were ddmin'd to 1-minimality when shrunk)."""
    from repro.fault import BYZANTINE_KINDS
    doc = _load(name)
    schedule = Schedule.from_dict(doc["schedule"])
    assert any(s.kind in BYZANTINE_KINDS for s in schedule.steps)
    assert len(schedule.steps) <= 3
