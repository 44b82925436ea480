"""E-intent: control messages per operation on the intent protocol.

Every metadata/lock operation rides its lock request (Lustre-style):
open is one ``LOCK_INTENT`` (carrying any deferred closes), growth
folds into a setattr intent, contiguous range acquires batch into one
``LOCK_BATCH``, and close costs nothing until the next batch.  This
experiment drives one op cycle — open(w), growth write, four contiguous
locked ranges, close — from a small active set inside a lazy-client
install at population scale and reports client-originated messages per
completed operation (keep-alives excluded: lease-machinery overhead,
not per-op traffic) plus goodput.  The split-op protocol this replaced
(one datagram per OPEN, SETATTR, range acquire, range release, CLOSE)
paid 11 datagrams for the same cycle; its measured row is kept as
``SPLIT_PROTOCOL_HISTORY``.

Run with ``python -m repro.harness e-intent``; EXPERIMENTS.md records
representative output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.analysis.report import Table
from repro.client.node import fleet_rpcs
from repro.core.config import LeaseConfig, SystemConfig, WorkloadConfig
from repro.core.system import StorageTankSystem, build_system
from repro.harness.registry import experiment
from repro.storage import BLOCK_SIZE

#: Client populations swept (lazy install; only the active set works).
SWEEP_CLIENTS: Tuple[int, ...] = (1_000, 10_000)

#: Active-set size: the workers that actually run the op cycle.
ACTIVE = 8

#: Contiguous sub-file ranges locked per cycle (batch fodder).
RANGES_PER_CYCLE = 4

#: Think time between cycles (s).
THINK = 0.2

#: What the deleted split-op protocol measured on this cycle (seed 0,
#: 30 s, either population): ops, client RPCs, ops/s.
SPLIT_PROTOCOL_HISTORY = (7112, 11184, 237.07)


def intent_point(seed: int = 0, n_clients: int = 1_000,
                 duration: float = 30.0) -> Dict[str, Any]:
    """Run one sweep point and return its raw measurements."""
    system = _build(n_clients, seed)
    t0 = system.sim.now
    workers = [f"c{i}" for i in range(1, ACTIVE + 1)]
    for i, name in enumerate(workers):
        system.spawn(_cycle(system, name, f"/intent{i}", duration),
                     f"e-intent:{name}")
    tau = system.config.lease.tau
    system.run(until=t0 + duration + 2.0 * tau)

    fleet = fleet_rpcs(system.client(name) for name in workers)
    return {"clients": n_clients, **fleet,
            "ops_per_s": fleet["ops"] / duration}


@experiment("e-intent",
            summary="intent protocol at 1k-10k clients: messages per op "
                    "and goodput for the open/grow/range-write/close "
                    "cycle, against the split-op protocol's history")
def experiment_e_intent(seed: int = 0, duration: float = 30.0) -> Table:
    """Sweep the op cycle across lazy-client populations."""
    table = Table(
        "E-intent  one round trip per op (intent locking + lock batching)",
        ["clients", "protocol", "ops", "client_rpcs", "msgs_per_op",
         "ops_per_s", "savings"])
    h_ops, h_rpcs, h_rate = SPLIT_PROTOCOL_HISTORY
    h_mpo = h_rpcs / h_ops
    table.add_row("1000/10000", "split (history)", h_ops, h_rpcs,
                  round(h_mpo, 2), h_rate, "-")
    for n_clients in SWEEP_CLIENTS:
        p = intent_point(seed=seed, n_clients=n_clients, duration=duration)
        savings = h_mpo / p["msgs_per_op"] if p["msgs_per_op"] else 0.0
        table.add_row(p["clients"], "intent", p["ops"], p["rpcs"],
                      round(float(p["msgs_per_op"]), 2),
                      round(float(p["ops_per_s"]), 2), f"{savings:.2f}x")
    table.note("op cycle: open(w), growth write, "
               f"{RANGES_PER_CYCLE} contiguous locked ranges, close; "
               f"{ACTIVE} active workers inside the lazy population.")
    table.note("msgs_per_op counts client-originated control RPCs "
               "(keep-alives excluded); the split row is the deleted "
               "split-op protocol's recorded measurement (seed 0, 30 s), "
               "and savings is its msgs_per_op over the measured one.")
    return table


def _cycle(system: StorageTankSystem, name: str, path: str,
           duration: float):
    """One worker: repeat the E-intent op cycle until the clock runs out.

    Each iteration grows the file by one stripe so the growth-setattr
    leg stays on the hot path, then writes the four newest contiguous
    ranges under byte-range locks.
    """
    c = system.client(name)
    yield from c.create(path, size=BLOCK_SIZE)
    end = system.sim.now + duration
    stripe = RANGES_PER_CYCLE * BLOCK_SIZE
    it = 0
    while system.sim.now < end:
        base = it * stripe
        fd = yield from c.open_file(path, "w")
        yield from c.write(fd, base, stripe)      # grows the file
        yield from c.write_ranges_locked(
            fd, [(base + i * BLOCK_SIZE, BLOCK_SIZE)
                 for i in range(RANGES_PER_CYCLE)])
        yield from c.close(fd)
        it += 1
        yield system.sim.timeout(THINK)


def _build(n_clients: int, seed: int) -> StorageTankSystem:
    cfg = SystemConfig(
        n_clients=n_clients, seed=seed, protocol="storage_tank",
        record_trace=False, rpc_timeout=0.5, rpc_retries=2,
        writeback_interval=0.0,
        lease=LeaseConfig(tau=8.0, epsilon=0.05),
        workload=WorkloadConfig(n_files=6, file_size_blocks=8,
                                read_fraction=0.6, think_time=0.2,
                                io_blocks=2))
    return build_system(cfg)
