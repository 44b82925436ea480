"""Results must not depend on process-global counters.

The message-id counter is module-global; absolute id values must never
leak into protocol behaviour (a shared-Message mutation bug once made
them matter — this pins the fix)."""

import itertools

import repro.net.message as message_mod

from tests.conftest import make_system


def _scenario_fingerprint():
    from repro.storage import BLOCK_SIZE
    s = make_system(n_clients=2, seed=17, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["tag"] = yield from c1.write(fd, 0, 2 * BLOCK_SIZE)

    def cut():
        yield s.sim.timeout(5.0)
        s.control_net.isolate("c1")

    def contender():
        yield s.sim.timeout(8.0)
        while s.sim.now < 100.0:
            try:
                fd = yield from c2.open_file("/f", "w")
                out["takeover"] = round(s.sim.now, 6)
                return
            except Exception:
                yield s.sim.timeout(1.0)
    s.spawn(holder())
    s.spawn(cut())
    s.spawn(contender())
    s.run(until=100.0)
    kinds = tuple((round(r.time, 6), r.kind, r.node)
                  for r in s.trace.records if not r.kind.startswith("msg."))
    return out.get("takeover"), kinds


def test_behaviour_invariant_under_msg_counter_offset():
    base = _scenario_fingerprint()
    # Shift the global id space wildly and by one (parity).
    for bump in (1, 12345):
        for _ in range(bump):
            next(message_mod._msg_counter)
        again = _scenario_fingerprint()
        assert again == base, f"behaviour changed after +{bump} id offset"


def test_server_restart_scenario_invariant_under_offset():
    from repro.harness.ablations import ablation_a7_server_recovery
    rows_a = ablation_a7_server_recovery(seed=0, outages=(1.0,)).rows
    for _ in range(7777):
        next(message_mod._msg_counter)
    rows_b = ablation_a7_server_recovery(seed=0, outages=(1.0,)).rows
    assert rows_a == rows_b
