#!/usr/bin/env python
"""Paper §6: the slow computer and the fencing backstop.

The lease proof assumes clocks stay rate-synchronized within ε.  Here
client c1's clock runs far below the bound, so its "30-second" lease
takes minutes of real time: the server's τ(1+ε) wait ends, the locks are
stolen, a new writer proceeds — and only *then* does the slow client
reach phase 4 and try to flush its stale dirty data over the SAN.

Run twice: with the fence the late write bounces off the device; without
it the write lands on top of the new holder's data and the offline audit
catches the corruption.

Run:  python examples/slow_client_fence.py
"""

from repro import SystemConfig, build_system
from repro.analysis import ConsistencyAuditor
from repro.storage import BLOCK_SIZE

HORIZON = 170.0


def run(fence_on_steal: bool):
    system = build_system(SystemConfig(
        n_clients=2, seed=5, protocol="storage_tank",
        fence_on_steal=fence_on_steal, slow_clients=("c1",),
        writeback_interval=1000.0))
    sim = system.sim
    c1, c2 = system.client("c1"), system.client("c2")
    print(f"\n=== fence_on_steal={fence_on_steal} ===")
    print(f"  c1 clock rate: {c1.endpoint.clock.rate:.3f} "
          f"(bound requires > {1 / (1 + system.config.lease.epsilon):.3f})")
    story = {}

    def narrator(rec):
        t = f"[{rec.time:7.2f}s]"
        if rec.kind == "lease.steal":
            print(f"  {t} server steals c1's locks "
                  f"(+ fence: {fence_on_steal})")
        elif rec.kind == "cache.flushed" and rec.node == "c1" and rec.time > 40:
            print(f"  {t} !!! c1's LATE flush of {rec.get('tag')!r} "
                  f"reached the disk")
        elif rec.kind == "app.error" and rec.node == "c1" and rec.time > 40:
            print(f"  {t} c1's late flush DENIED at the device "
                  f"({rec.get('reason')}) — loss reported to the app")
    system.trace.subscribe(narrator)

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        tag = yield from c1.write(fd, 0, 2 * BLOCK_SIZE)
        print(f"  [{sim.now:7.2f}s] slow c1 holds X with dirty {tag!r}")

    def cut():
        yield sim.timeout(5.0)
        system.control_net.isolate("c1")
        print(f"  [{sim.now:7.2f}s] c1 partitioned from the control net")

    def contender():
        yield sim.timeout(8.0)
        while sim.now < HORIZON:
            try:
                fd = yield from c2.open_file("/f", "w")
                tag = yield from c2.write(fd, 0, 2 * BLOCK_SIZE)
                yield from c2.close(fd)
                story["c2_tag"] = tag
                print(f"  [{sim.now:7.2f}s] c2 took over and hardened "
                      f"{tag!r}")
                return
            except Exception:
                yield sim.timeout(1.0)

    system.spawn(holder())
    system.spawn(cut())
    system.spawn(contender())
    system.run(until=HORIZON)

    report = ConsistencyAuditor(system).audit()
    disk = next(iter(system.disks.values()))
    final = disk.peek(0).tag
    print(f"  final disk content: {final!r} "
          f"(c2 wrote {story.get('c2_tag')!r})")
    print(f"  audit: {'SAFE' if report.safe else 'UNSAFE'} — "
          f"unsynchronized writes: {len(report.unsynchronized_writes)}")
    return report.safe


def main() -> None:
    safe_with_fence = run(fence_on_steal=True)
    safe_without = run(fence_on_steal=False)
    print("\nconclusion:")
    print(f"  lease + fence : {'SAFE' if safe_with_fence else 'UNSAFE'}")
    print(f"  lease alone   : {'SAFE' if safe_without else 'UNSAFE'}   "
          f"<- why §6 keeps fencing as the backstop for slow computers")
    assert safe_with_fence and not safe_without


if __name__ == "__main__":
    main()
