"""Session-guarantee checks (read-your-writes, monotonic reads)."""

import pytest

from repro.analysis import ConsistencyAuditor
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def test_clean_run_has_no_session_violations():
    s = make_system(n_clients=2)
    c1, c2 = s.client("c1"), s.client("c2")

    def writer():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        yield from c1.read(fd, 0, BLOCK_SIZE)   # read-your-write
        yield from c1.close(fd)

    def reader():
        yield s.sim.timeout(2.0)
        fd = yield from c2.open_file("/f", "r")
        yield from c2.read(fd, 0, BLOCK_SIZE)
        yield from c2.read(fd, 0, BLOCK_SIZE)   # monotonic
    s.spawn(writer())
    s.spawn(reader())
    s.run(until=20.0)
    report = ConsistencyAuditor(s).audit()
    assert report.ryw_violations == []
    assert report.monotonic_violations == []


def test_slow_client_without_fence_regresses_victims_reads():
    """E10's no-fence outcome, seen from the new holder: its own write is
    overwritten by the slow client's stale flush, so its next read both
    breaks read-your-writes and regresses monotonically."""
    from repro.core import SystemConfig, build_system
    s = build_system(SystemConfig(n_clients=2, seed=5,
                                  protocol="storage_tank",
                                  fence_on_steal=False,
                                  slow_clients=("c1",),
                                  writeback_interval=1000.0))
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, 2 * BLOCK_SIZE)

    def cut():
        yield s.sim.timeout(5.0)
        s.control_net.isolate("c1")

    def contender():
        yield s.sim.timeout(8.0)
        while s.sim.now < 160.0:
            try:
                fd = yield from c2.open_file("/f", "w")
                yield from c2.write(fd, 0, 2 * BLOCK_SIZE)
                yield from c2.flush(fd)
                out["fd"] = fd
                break
            except Exception:
                yield s.sim.timeout(1.0)
        # Keep re-reading: eventually the slow client's late flush lands
        # on top of our data.
        while s.sim.now < 160.0:
            yield s.sim.timeout(5.0)
            try:
                c2.cache.invalidate_all()   # force disk reads
                yield from c2.read(out["fd"], 0, BLOCK_SIZE)
            except Exception:
                pass
    s.spawn(holder())
    s.spawn(cut())
    s.spawn(contender())
    s.run(until=170.0)
    report = ConsistencyAuditor(s).audit()
    assert len(report.ryw_violations) > 0
    assert len(report.monotonic_violations) > 0
    assert report.ryw_violations[0].client == "c2"


def test_fence_prevents_session_violations():
    """Same scenario with the fence: the victim's reads never regress."""
    from repro.core import SystemConfig, build_system
    s = build_system(SystemConfig(n_clients=2, seed=5,
                                  protocol="storage_tank",
                                  fence_on_steal=True,
                                  slow_clients=("c1",),
                                  writeback_interval=1000.0))
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, 2 * BLOCK_SIZE)

    def cut():
        yield s.sim.timeout(5.0)
        s.control_net.isolate("c1")

    def contender():
        yield s.sim.timeout(8.0)
        while s.sim.now < 160.0:
            try:
                fd = yield from c2.open_file("/f", "w")
                yield from c2.write(fd, 0, 2 * BLOCK_SIZE)
                yield from c2.flush(fd)
                out["fd"] = fd
                break
            except Exception:
                yield s.sim.timeout(1.0)
        while s.sim.now < 160.0:
            yield s.sim.timeout(5.0)
            try:
                c2.cache.invalidate_all()
                yield from c2.read(out["fd"], 0, BLOCK_SIZE)
            except Exception:
                pass
    s.spawn(holder())
    s.spawn(cut())
    s.spawn(contender())
    s.run(until=170.0)
    report = ConsistencyAuditor(s).audit()
    assert report.ryw_violations == []
    assert report.monotonic_violations == []
