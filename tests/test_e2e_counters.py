"""``benchmarks/e2e_counters.py --write FILE --workload W`` re-blesses one
workload: it measures only W and merges it into FILE, leaving every
other entry byte for byte as it was, and refuses a FILE it cannot merge
into (missing, or written for another schema, seed or run length)."""

import json
import os

import pytest

from benchmarks import e2e_counters

_OLD = {"sim_digest": "old", "sim.events_per_work": 0.1 + 0.2,
        "trace.calls_per_work": 74478.123456789}
_NEW = {"sim_digest": "new", "sim.events_per_work": 2.5,
        "trace.calls_per_work": 1.0}


@pytest.fixture
def measured(monkeypatch):
    calls = []

    def measure(workload, seconds):
        calls.append(workload)
        return dict(_NEW)
    monkeypatch.setattr(e2e_counters, "measure", measure)
    return calls


def _write(path, **header):
    with open(os.path.join(e2e_counters.REPO, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    doc = {"schema": e2e_counters.SCHEMA, "seed": e2e_counters.SEED,
           "seconds": seconds, "workloads": {"steady_rw": _OLD,
                                        "fault_fuzz": _OLD}}
    doc.update(header)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path.read_text()


def _entry(text, name):
    """The text of one workload's entry."""
    start = text.index(f'"{name}": {{')
    return text[start:text.index("}", start) + 1]


def test_one_workload_is_merged_and_the_others_stay_byte_identical(
        tmp_path, measured):
    path = tmp_path / "e2e.json"
    before = _write(path)
    assert e2e_counters.main(["--write", str(path),
                              "--workload", "fault_fuzz"]) == 0
    assert measured == ["fault_fuzz"]
    after = path.read_text()
    assert _entry(after, "steady_rw") == _entry(before, "steady_rw")
    assert json.loads(after)["workloads"]["fault_fuzz"] == _NEW
    assert [line for line in after.splitlines()
            if line not in before.splitlines()] == [
        '      "sim.events_per_work": 2.5,',
        '      "sim_digest": "new",',
        '      "trace.calls_per_work": 1.0']


def test_a_missing_file_is_refused_before_measuring(tmp_path, measured):
    path = tmp_path / "absent.json"
    assert e2e_counters.main(["--write", str(path),
                              "--workload", "fault_fuzz"]) == 2
    assert measured == []
    assert not path.exists()


@pytest.mark.parametrize("header", [{"seed": 1}, {"seconds": 3},
                                    {"schema": "repro.bench-e2e/0.9"}])
def test_a_file_for_another_run_is_refused_and_left_as_it_was(
        tmp_path, measured, header):
    path = tmp_path / "e2e.json"
    before = _write(path, **header)
    assert e2e_counters.main(["--write", str(path),
                              "--workload", "fault_fuzz"]) == 2
    assert measured == []
    assert path.read_text() == before
