#!/usr/bin/env python
"""Sub-file sharing with byte-range locks: a shared append log.

Whole-file EXCLUSIVE locks serialize every writer of a file — fine for
private files, painful for a log that many clients append to.  Storage
Tank's locking is *logical* (paper §5), so it extends naturally below
the file: here three clients append records to disjoint regions of one
shared log file concurrently under byte-range locks, while a reader
tails the log under SHARED range locks.

Watch for:

- all three writers make progress in parallel (disjoint ranges never
  conflict);
- two writers colliding on the same record slot serialize cleanly;
- when one writer is partitioned mid-run, its lease steal frees its
  ranges and the others continue;
- the consistency audit accepts every write (range coverage replaces
  whole-file coverage in the I4 check).

Run:  python examples/shared_log.py
"""

from repro import SystemConfig, build_system
from repro.analysis import ConsistencyAuditor
from repro.locks import SCOPED
from repro.storage import BLOCK_SIZE

LOG_BLOCKS = 90
RECORD_BLOCKS = 2
HORIZON = 90.0


def main() -> None:
    system = build_system(SystemConfig(n_clients=4, seed=23))
    sim = system.sim
    writers = ["c1", "c2", "c3"]
    reader = "c4"
    state = {"next_slot": 0, "appended": []}

    def setup():
        c1 = system.client("c1")
        yield from c1.create("/shared/log", size=LOG_BLOCKS * BLOCK_SIZE)
    boot = system.spawn(setup(), "setup")
    sim.run_until_event(boot, hard_limit=60.0)

    def appender(name: str):
        client = system.client(name)
        fd = yield from client.open_file("/shared/log", "r")  # S file lock
        while sim.now < HORIZON:
            yield sim.timeout(0.5 + 0.1 * hash(name) % 3 / 10)
            slot = state["next_slot"]
            if (slot + 1) * RECORD_BLOCKS > LOG_BLOCKS:
                return
            state["next_slot"] += 1
            offset = slot * RECORD_BLOCKS * BLOCK_SIZE
            try:
                tag = yield from client.write_range_locked(
                    fd, offset, RECORD_BLOCKS * BLOCK_SIZE)
                state["appended"].append((sim.now, name, slot, tag))
            except Exception as exc:
                print(f"[{sim.now:6.2f}s] {name} append failed "
                      f"({type(exc).__name__}) — its slot stays empty")
                return

    def tailer():
        client = system.client(reader)
        fd = yield from client.open_file("/shared/log", "r")
        seen = 0
        while sim.now < HORIZON:
            yield sim.timeout(3.0)
            upto = min(state["next_slot"], LOG_BLOCKS // RECORD_BLOCKS)
            if upto <= seen:
                continue
            res = yield from client.read_range_locked(
                fd, seen * RECORD_BLOCKS * BLOCK_SIZE,
                (upto - seen) * RECORD_BLOCKS * BLOCK_SIZE)
            filled = sum(1 for _lb, tag in res if tag is not None)
            print(f"[{sim.now:6.2f}s] tailer caught up slots "
                  f"{seen}..{upto - 1}: {filled}/{len(res)} blocks written")
            seen = upto

    for w in writers:
        system.spawn(appender(w), f"append:{w}")
    system.spawn(tailer(), "tailer")

    def mid_run_failure():
        yield sim.timeout(12.0)
        system.control_net.isolate("c2")
        print(f"[{sim.now:6.2f}s] *** c2 partitioned mid-append ***")
    system.spawn(mid_run_failure(), "failure")

    system.run(until=HORIZON)

    by_writer = {}
    for _t, name, _slot, _tag in state["appended"]:
        by_writer[name] = by_writer.get(name, 0) + 1
    print("\nappends per writer:", by_writer)
    assert by_writer.get("c1", 0) > 0 and by_writer.get("c3", 0) > 0
    range_steals = sum(1 for g in system.server.locks.history
                       if g.op == "steal" and g.kind == SCOPED)
    print(f"range-lock steals after the partition: {range_steals}")

    report = ConsistencyAuditor(system).audit()
    print(f"consistency audit: "
          f"{'SAFE' if report.safe else report.summary()}")
    assert report.unsynchronized_writes == []
    print("every append was covered by its byte-range lock — no "
          "whole-file serialization, no corruption.")


if __name__ == "__main__":
    main()
