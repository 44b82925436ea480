"""The pinned regression-seed corpus (tier-1's determinism anchor)."""

from __future__ import annotations

import json

import pytest

import repro.simtest.corpus as corpus_mod
from repro.simtest.corpus import (CORPUS_SCHEMA, PINNED_RUNS, bless_corpus,
                                  load_corpus, replay_corpus, replay_entry)
from repro.simtest.schedule import generate_schedule


def test_corpus_file_matches_pinned_runs():
    entries = load_corpus()
    assert [(e.seed, e.n_steps, e.cache_nodes, e.adversaries)
            for e in entries] == list(PINNED_RUNS)
    assert any(e.cache_nodes > 0 for e in entries), \
        "the corpus must pin at least one netcache-enabled schedule"
    assert any(e.adversaries > 0 for e in entries), \
        "the corpus must pin at least one adversarial schedule"
    for e in entries:
        assert len(e.trace_hash) == 64
        int(e.trace_hash, 16)  # hex digest


def test_corpus_entries_ignore_legacy_intents_key(tmp_path):
    # Corpus files written while the protocol had a split-op variant
    # carry an "intents" key per entry, older ones none; all load to
    # the same entry.
    entry = {"seed": 5, "n_steps": 3, "trace_hash": "ab" * 32}
    doc = {"schema": CORPUS_SCHEMA,
           "entries": [entry, {**entry, "intents": False},
                       {**entry, "intents": True}]}
    p = tmp_path / "old.json"
    p.write_text(json.dumps(doc))
    a, b, c = load_corpus(str(p))
    assert a == b == c
    assert "intents" not in a.to_dict()


def test_corpus_replays_clean_with_identical_hashes():
    outcomes = replay_corpus()
    assert len(outcomes) == len(PINNED_RUNS)
    for outcome in outcomes:
        assert outcome.hash_matches, \
            f"seed {outcome.entry.seed}: trace hash drifted"
        assert outcome.result.ok, \
            f"seed {outcome.entry.seed}: {outcome.result.oracle_names()}"
        assert outcome.ok


def test_replay_entry_detects_hash_drift():
    entry = load_corpus()[0]
    drifted = corpus_mod.CorpusEntry(seed=entry.seed, n_steps=entry.n_steps,
                                     trace_hash="0" * 64)
    outcome = replay_entry(drifted)
    assert not outcome.hash_matches
    assert not outcome.ok
    assert outcome.result.ok  # the run itself is still clean


def test_load_missing_corpus_is_empty(tmp_path):
    assert load_corpus(str(tmp_path / "nope.json")) == []


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema": "other/1.0", "entries": []}))
    with pytest.raises(ValueError, match="schema"):
        load_corpus(str(path))


def test_bless_writes_replayable_corpus(tmp_path):
    path = tmp_path / "corpus.json"
    blessed = bless_corpus(str(path))
    doc = json.loads(path.read_text())
    assert doc["schema"] == CORPUS_SCHEMA
    # Blessing is idempotent with the shipped corpus: same pinned runs,
    # same deterministic hashes.
    assert [e.to_dict() for e in blessed] == \
        [e.to_dict() for e in load_corpus()]


def test_bless_refuses_failing_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus_mod, "PINNED_RUNS", ((7, 20, 0, 0),))
    monkeypatch.setattr(
        corpus_mod, "generate_schedule",
        lambda seed, n, cache_nodes=0, adversaries=0:
        generate_schedule(seed, n, break_mode="skip_flush",
                          cache_nodes=cache_nodes, adversaries=adversaries))
    path = tmp_path / "corpus.json"
    with pytest.raises(ValueError, match="refusing to bless"):
        bless_corpus(str(path))
    assert not path.exists()
