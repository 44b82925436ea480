#!/usr/bin/env python
"""The paper's Figure 2 scenario, narrated live.

A client holding an exclusive lock with *dirty write-back data* is cut
off from the control network while keeping full SAN access — the
two-network problem.  Watch the lease protocol walk its four phases:

  phase 1  lease valid      — normal service
  phase 2  renewal period   — keep-alives (all unanswered)
  phase 3  lease suspect    — quiesce: new requests refused
  phase 4  expected failure — dirty data flushed to the SAN
  expiry                    — cache invalidated, locks ceded

…after which the server (which waited τ(1+ε) on its own clock) steals
the locks and the blocked second client proceeds — reading the isolated
client's final data, because the flush beat the steal (Theorem 3.1).

Run:  python examples/partition_survivor.py
"""

from repro import SystemConfig, build_system
from repro.analysis import (
    ConsistencyAuditor,
    render_lease_timeline,
    unavailability_after,
)
from repro.fault import FaultInjector
from repro.lease.phases import LeasePhase
from repro.storage import BLOCK_SIZE

PARTITION_AT = 5.0


def main() -> None:
    system = build_system(SystemConfig(n_clients=2, seed=11,
                                       writeback_interval=1000.0))
    sim = system.sim
    c1, c2 = system.client("c1"), system.client("c2")
    story = {}

    # Narrate lease-phase transitions and server-side lease events.
    def narrator(rec):
        if rec.kind == "lease.phase" and rec.node == "c1":
            phase = LeasePhase(rec.get("phase"))
            print(f"[{rec.time:7.2f}s] c1 lease -> {phase.name}")
        elif rec.kind == "lease.suspect":
            print(f"[{rec.time:7.2f}s] server: c1 unreachable, starting "
                  f"the tau(1+eps) = {rec.get('wait_local'):.1f}s timer")
        elif rec.kind == "lease.steal":
            print(f"[{rec.time:7.2f}s] server: timer done — stealing "
                  f"c1's locks (its lease provably expired)")
        elif rec.kind == "cache.flushed" and rec.node == "c1":
            print(f"[{rec.time:7.2f}s] c1 hardened {rec.get('tag')!r} "
                  f"to {rec.get('device')} (phase-4 flush)")
        elif rec.kind == "fault.inject":
            print(f"[{rec.time:7.2f}s] *** control network partitions "
                  f"around c1 (SAN stays up) ***")
    system.trace.subscribe(narrator)

    def holder():
        yield from c1.create("/db/segment-07", size=4 * BLOCK_SIZE)
        fd = yield from c1.open_file("/db/segment-07", "w")
        tag = yield from c1.write(fd, 0, 4 * BLOCK_SIZE)
        story["tag"] = tag
        story["fid"] = c1.fds.get(fd).file_id
        print(f"[{sim.now:7.2f}s] c1 holds X lock with dirty {tag!r}")

    def contender():
        yield sim.timeout(8.0)
        print(f"[{sim.now:7.2f}s] c2 wants the file for writing "
              f"(will block: c1 cannot be reached to demand the lock)")
        fd = yield from c2.open_file("/db/segment-07", "w")
        story["takeover"] = sim.now
        result = yield from c2.read(fd, 0, BLOCK_SIZE)
        story["read"] = result
        print(f"[{sim.now:7.2f}s] c2 GRANTED — reads {result[0][1]!r}")

    system.spawn(holder(), "holder")
    # Fig. 2: the control network partitions around c1; the SAN stays.
    injector = FaultInjector(system)
    injector.apply_step(PARTITION_AT, "isolate_client", {"client": "c1"})
    injector.start()
    system.spawn(contender(), "contender")
    system.run(until=120.0)

    print()
    views = system.network_views()
    print(f"two-network views symmetric? {views['symmetric']} "
          f"(paper §2: a control-net cut is asymmetric overall)")
    avail = unavailability_after(system, story["fid"], "c1", PARTITION_AT)
    print(f"unavailability window: {avail.window:.2f}s "
          f"(bound ≈ detection + tau(1+eps) = "
          f"~4 + {system.config.lease.tau * (1 + system.config.lease.epsilon):.1f}s)")
    report = ConsistencyAuditor(system).audit()
    print(f"consistency audit: "
          f"{'SAFE' if report.safe else 'VIOLATIONS: ' + str(report.summary())}")
    assert story["read"][0][1] == story["tag"]
    print("no update lost: c2 read the isolated client's final write.")
    print("\nrun timeline:")
    print(render_lease_timeline(system))


if __name__ == "__main__":
    main()
