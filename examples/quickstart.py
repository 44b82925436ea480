#!/usr/bin/env python
"""Quickstart: a two-client Storage Tank installation.

Builds the simulated system (one metadata server, two clients, one
shared SAN disk), writes a file from one client with write-back caching,
reads it coherently from the other — the second open *demands* the
writer's exclusive lock down to shared, forcing the dirty data to disk
first — and prints the run's metrics, including the headline fact that
the lease machinery cost the server exactly nothing.

Run:  python examples/quickstart.py
"""

from repro import SystemConfig, build_system
from repro.storage import BLOCK_SIZE


def main() -> None:
    system = build_system(SystemConfig(n_clients=2, seed=7))
    sim = system.sim
    c1, c2 = system.client("c1"), system.client("c2")
    story = {}

    def writer():
        # Create a 16 KiB file and open it for writing (grants an
        # EXCLUSIVE data lock, cached past close).
        yield from c1.create("/projects/report.txt", size=4 * BLOCK_SIZE)
        fd = yield from c1.open_file("/projects/report.txt", "w")
        tag = yield from c1.write(fd, 0, 2 * BLOCK_SIZE)
        story["written"] = tag
        print(f"[{sim.now:7.3f}s] c1 wrote {tag!r} into its cache "
              f"(dirty pages: {c1.cache.dirty_count})")
        # No flush, no close: the data lives only in c1's cache.

    def reader():
        yield sim.timeout(1.0)
        # Opening for read makes the server demand a downgrade from c1,
        # which flushes its dirty pages to the SAN first.
        fd = yield from c2.open_file("/projects/report.txt", "r")
        result = yield from c2.read(fd, 0, 2 * BLOCK_SIZE)
        story["read"] = result
        print(f"[{sim.now:7.3f}s] c2 read blocks {result}")

    system.spawn(writer(), "writer")
    system.spawn(reader(), "reader")
    system.run(until=30.0)

    assert story["read"][0][1] == story["written"], "coherence violated?!"
    print("\ncoherent: c2 observed exactly what c1 wrote, via the SAN.\n")

    registry = system.obs.registry
    print(f"server transactions:        {system.server.transactions}")
    print(f"server file-data bytes:     {system.server.data_bytes_served}  "
          f"(direct access: clients do their own I/O)")
    print(f"SAN bytes moved:            "
          f"{system.san.bytes_read + system.san.bytes_written}")
    print(f"lease state at the server:  "
          f"{registry.value('lease.server.state_bytes'):.0f} bytes")
    print(f"lease computations:         "
          f"{registry.value('lease.server.cpu_ops'):.0f}")
    print(f"lease messages:             "
          f"{registry.value('lease.server.msgs_sent'):.0f}")
    print("\nThe three lease numbers are zero — the locking authority is "
          "passive during normal operation (paper §3).")


if __name__ == "__main__":
    main()
