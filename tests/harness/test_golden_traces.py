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
        "5ceba5c08daf9499e778fc94a750d312a9a5e94c937893288ecbdfe89bd62c4f",
        "5df1c743f6f2e1c456acd58c624810dda71f79a030ffbc95f2e7b260d3eb8b93",
    ],
    experiment_e6_nack: [
        "a5c4be71a8efab282b3bb35ef742ab2f46419b4567367b4923118e67fa13f0b6",
        "37edb9025eb699c16f75a5bae28275afcbf882a452f9c517f3bbbdc26d25c6e0",
    ],
}


class _SystemGrabber:
    """Minimal runlog collector: record built systems, sample nothing.

    Unlike :class:`repro.obs.runlog.RunCollector` it spawns no sampler
    processes, so the experiment's event sequence is untouched.  An
    active collector turns span collection on; spans are kept by the
    span tracer, not in the trace, so they do not enter the hash.
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
