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
        "fcf4a17985f95902489b2ca66a6f21f6f6bf587b2bba42fac411531dfd60de46",
        "c5063b90650ded5ab3f12bcc60a81cfbf9ffacef64429e0ba56979a4d723bdc2",
    ],
    experiment_e6_nack: [
        "eaeb1279f9badfab6f657e6c41ca7af534797e205acbd338ba7d636761a4213f",
        "2b089b9997cca350f187c062dcf160863640dcbb7d7695ed274038bc8f0550b1",
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
