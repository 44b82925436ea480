"""The safety matrix: which recovery policies violate which invariants.

This is the repository's distilled statement of the paper's argument:
run one contended-partition scenario under every policy and assert the
exact violation signature the paper predicts for each.
"""

import pytest

from repro.analysis import ConsistencyAuditor
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system


def run_contended_partition(protocol, horizon=130.0, seed=0):
    """Holder writes (write-back), keeps reading/writing/fsyncing; gets
    partitioned; contender takes over and writes new data."""
    s = make_system(n_clients=2, protocol=protocol, seed=seed,
                    writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    state = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, 2 * BLOCK_SIZE)
        state["fd"] = fd

    def cut():
        yield s.sim.timeout(5.0)
        s.control_net.isolate("c1")

    def local_activity():
        while s.sim.now < 60.0:
            yield s.sim.timeout(1.0)
            fd = state.get("fd")
            if fd is None:
                continue
            try:
                yield from c1.read(fd, 0, 2 * BLOCK_SIZE)
            except Exception:
                pass
            if int(s.sim.now) % 3 == 0:
                try:
                    yield from c1.write(fd, 0, BLOCK_SIZE)
                except Exception:
                    pass
            if int(s.sim.now) % 7 == 0:
                try:
                    yield from c1.flush()
                except Exception:
                    pass

    def contender():
        yield s.sim.timeout(8.0)
        while s.sim.now < horizon:
            try:
                fd = yield from c2.open_file("/f", "w")
                yield from c2.write(fd, 0, 2 * BLOCK_SIZE)
                yield from c2.close(fd)
                return
            except Exception:
                yield s.sim.timeout(1.0)

    s.spawn(holder())
    s.spawn(cut())
    s.spawn(local_activity())
    s.spawn(contender())
    s.run(until=horizon)
    return s, ConsistencyAuditor(s).audit()


def test_storage_tank_is_fully_safe():
    s, report = run_contended_partition("storage_tank")
    assert report.safe
    assert report.stale_reads == []
    assert report.unsynchronized_writes == []
    assert report.lost_updates == []


def test_naive_steal_violates_single_writer():
    s, report = run_contended_partition("naive_steal")
    assert not report.safe
    assert len(report.unsynchronized_writes) > 0


def test_naive_steal_serves_stale_reads():
    s, report = run_contended_partition("naive_steal")
    assert len(report.stale_reads) > 0


def test_fencing_only_strands_or_loses_data():
    s, report = run_contended_partition("fencing_only")
    assert not report.safe or report.stranded_reported
    # the fence blocks the late writes (no I4)…
    assert report.unsynchronized_writes == []
    # …but data written into the cache never reaches disk
    assert len(report.stale_reads) + len(report.lost_updates) \
        + len(report.stranded_reported) > 0


def test_no_protocol_is_safe_but_unavailable():
    s, report = run_contended_partition("no_protocol")
    assert report.safe  # honoring locks forever is consistent…
    # …but the contender never succeeded:
    grants_to_c2 = [g for g in s.server.locks.history
                    if g.client == "c2" and g.op == "grant"]
    assert grants_to_c2 == []
