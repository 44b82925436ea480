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
        "96c70ae6f4bcdbfc1fec1d6af24d5ba269d490e2c28286473145571f5b000192",
        "dcbc22b689da8d2d41c86fabb501cc5a66bcb2e75ab8f453b06e2bfac91935ea",
    ],
    experiment_e6_nack: [
        "75e82599b34e605da8a2fec311b3b8d7795bd4c16a349713fb58c24c61e87502",
        "dec51074af6dc95b7573f8f83dc80d735f7f5f5bf2e5ed74c5abfaf6ef20183e",
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
