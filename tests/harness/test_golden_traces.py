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
        "d58c670d5fc3dc6fea000e541ca1f010fa8315bbfc611df59b74632e088c8097",
        "bb4b4d6c6e92d6e219d87a6ccc0c9616768bd4d5a349a9a3345c623b60ed6ae3",
    ],
    experiment_e6_nack: [
        "6682dff0145d39e85195a960e0f20f50c038b5c214010cc3541dd9d518692e28",
        "49d087695f208771e881345245fa5d5f9a28247f4357b6ec428c86fa7f3d5fd7",
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
