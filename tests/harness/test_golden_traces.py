"""Golden trace-hash regression tests for harness experiments.

The perf work (PR 5) rewrote the kernel dispatch loop, the transport
closures and the trace/metrics hot paths with the explicit contract
that *no* observable behavior changes.  These tests pin the canonical
trace hash of every system two representative experiments build, so any
behavioral drift — a reordered event, a dropped trace record, a changed
retry pattern — fails tier-1 loudly instead of silently skewing tables.

The simtest corpus (tests/simtest/test_corpus.py) pins the fuzz-schedule
side; this file pins the harness-experiment side.  Re-bless by running
this file's ``_compute()`` helper by hand and updating GOLDEN — but only
after convincing yourself the behavior change is intended.
"""

from repro.harness.experiments import (experiment_e1_direct_access,
                                       experiment_e6_nack)
from repro.obs import runlog
from repro.simtest.runner import trace_hash

#: experiment callable -> trace hash of each system it builds, in build
#: order.  Pinned with seed 0 and default parameters.
GOLDEN = {
    experiment_e1_direct_access: [
        "56021c04cabb4944ab35dd1688c2cb6a99c065a9e79facecaaaede6138cb15d0",
        "0874a199ef5f89d677f93d90d8d8fc5ef66a7cf44bdc696acf59454361ec6481",
    ],
    experiment_e6_nack: [
        "d607ca5c82b1b8099e750a38d21de6b4e32216a2af201b6c5ece5a516d34a3cb",
        "f3fae93a2669cf15856a36fa8b27b0a2049c3c37bd7383917b72f24b2baeb937",
    ],
}


class _SystemGrabber:
    """Minimal runlog collector: record built systems, sample nothing.

    Unlike :class:`repro.obs.runlog.RunCollector` it spawns no sampler
    processes, so the experiment's event sequence is untouched apart
    from ``force_spans`` (deterministically on for every golden run).
    """

    def __init__(self):
        self.systems = []

    def on_system_built(self, system):
        self.systems.append(system)


def _compute(experiment):
    grabber = _SystemGrabber()
    with runlog.use(grabber):
        experiment(seed=0)
    return [trace_hash(system) for system in grabber.systems]


def test_e1_direct_access_trace_hashes_pinned():
    assert _compute(experiment_e1_direct_access) == GOLDEN[
        experiment_e1_direct_access]


def test_e6_nack_trace_hashes_pinned():
    assert _compute(experiment_e6_nack) == GOLDEN[experiment_e6_nack]
