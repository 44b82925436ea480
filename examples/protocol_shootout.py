#!/usr/bin/env python
"""Every recovery policy, one hostile scenario, one scoreboard.

Runs the contended-partition workload (a write-back holder gets isolated
while a contender wants its file) under all seven protocols the paper
discusses and prints a scoreboard of availability vs safety — the
paper's whole argument in one table:

  no_protocol   safe but the file is gone forever
  naive_steal   fast but corrupts (concurrent writers on the SAN)
  fencing_only  fast but strands dirty data and serves stale cache
  storage_tank  safe AND available after ~ tau(1+eps)
  frangipani    safe, but pays heartbeats + per-client server state
  vleases       safe, but pays per-object renewals + state
  nfs           no locks at all: available, incoherent by design

Run:  python examples/protocol_shootout.py
"""

from repro import SystemConfig, build_system
from repro.analysis import ConsistencyAuditor, Table
from repro.core.config import PROTOCOLS
from repro.storage import BLOCK_SIZE

HORIZON = 130.0


def run_protocol(protocol: str):
    system = build_system(SystemConfig(n_clients=2, seed=3, protocol=protocol,
                                       writeback_interval=1000.0))
    sim = system.sim
    c1, c2 = system.client("c1"), system.client("c2")
    outcome = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, 2 * BLOCK_SIZE)
        outcome["fd"] = fd
        while sim.now < 60.0:  # local processes keep using the cache
            yield sim.timeout(2.0)
            try:
                yield from c1.read(fd, 0, 2 * BLOCK_SIZE)
                yield from c1.write(fd, 0, BLOCK_SIZE)
            except Exception:
                pass
            if int(sim.now) % 8 == 0:
                try:
                    yield from c1.flush(fd)
                except Exception:
                    pass

    def cut():
        yield sim.timeout(5.0)
        system.control_net.isolate("c1")

    def contender():
        yield sim.timeout(8.0)
        while sim.now < HORIZON:
            try:
                fd = yield from c2.open_file("/f", "w")
                outcome["takeover"] = sim.now
                yield from c2.write(fd, 0, 2 * BLOCK_SIZE)
                yield from c2.close(fd)
                return
            except Exception:
                yield sim.timeout(1.0)

    system.spawn(holder())
    system.spawn(cut())
    system.spawn(contender())
    system.run(until=HORIZON)

    report = ConsistencyAuditor(system).audit()
    registry = system.obs.registry
    takeover = outcome.get("takeover")
    return {
        "available_after": f"{takeover - 5.0:.1f}s" if takeover else "never",
        "stale_reads": len(report.stale_reads),
        "lost": len(report.lost_updates) + len(report.stranded_reported),
        "multi_writer": len(report.unsynchronized_writes),
        "lease_msgs": int(registry.value("lease.client.msgs_sent")
                          + registry.value("lease.server.msgs_sent")),
        "state_B": int(registry.value("lease.server.state_bytes")),
        "verdict": "SAFE" if report.safe else "UNSAFE",
    }


def main() -> None:
    table = Table(
        "Recovery-policy scoreboard (one contended partition at t=5s)",
        ["protocol", "available_after", "stale_reads", "lost",
         "multi_writer", "lease_msgs", "state_B", "verdict"])
    for protocol in PROTOCOLS:
        r = run_protocol(protocol)
        table.add_row(protocol, r["available_after"], r["stale_reads"],
                      r["lost"], r["multi_writer"], r["lease_msgs"],
                      r["state_B"], r["verdict"])
    table.note("storage_tank is the only policy that is safe, coherent AND "
               "makes the data available again.")
    table.note("'lost' counts updates that never reached disk (silent or "
               "reported); nfs takes no locks, so multi_writer is not "
               "checked for it.")
    print(table)


if __name__ == "__main__":
    main()
