"""Client node behaviour against a real server (integration-lite)."""

import gc
import weakref

import pytest

from repro.client import ClientDisconnectedError, ClientQuiescedError
from repro.lease import LeasePhase
from repro.locks import SCOPED, LockMode
from repro.sim.kernel import Simulator
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def test_create_open_write_read_close():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        tag = yield from c.write(fd, 0, BLOCK_SIZE)
        res = yield from c.read(fd, 0, BLOCK_SIZE)
        yield from c.close(fd)
        return (tag, res)
    tag, res = run_gen(s, app())
    assert res == [(0, tag)]


def test_open_missing_file_nacks():
    from repro.net import NackError
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        with pytest.raises(NackError):
            yield from c.open_file("/nope", "r")
        yield s.sim.timeout(0)
    run_gen(s, app())


def test_open_bad_mode():
    s = make_system(n_clients=1)
    c = s.client("c1")
    with pytest.raises(ValueError):
        c.open_file("/f", "rw").send(None)


def test_write_on_readonly_fd_rejected():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "r")
        with pytest.raises(PermissionError):
            yield from c.write(fd, 0, 10)
    run_gen(s, app())


def test_write_grows_file():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 3 * BLOCK_SIZE, BLOCK_SIZE)  # beyond EOF
        of = c.fds.get(fd)
        return of.extents.block_count
    blocks = run_gen(s, app())
    assert blocks >= 4


def test_read_fills_cache_then_hits():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "r")
        yield from c.read(fd, 0, BLOCK_SIZE)
        yield from c.read(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    assert c.cache.stats.hits >= 1


def test_flush_hardens_dirty_pages():
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        tag = yield from c.write(fd, 0, BLOCK_SIZE)
        n = yield from c.flush(fd)
        return (tag, n)
    tag, n = run_gen(s, app())
    assert n == 1
    disk = next(iter(s.disks.values()))
    assert any(e.tag == tag for e in disk.history if e.op == "write")


def test_writeback_daemon_flushes_eventually():
    s = make_system(n_clients=1, writeback_interval=2.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    s.run(until=10.0)
    assert c.cache.dirty_count == 0


def test_close_flushes():
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
        yield from c.close(fd)
    run_gen(s, app())
    assert c.cache.dirty_count == 0


def test_rewrite_racing_a_flush_is_not_lost():
    """A write that lands while the page's previous content is on its
    way to the SAN must stay dirty: the flush hardened the *old* tag, so
    marking the page clean would silently drop the acknowledged rewrite
    (audit invariant I2)."""
    from repro.analysis import ConsistencyAuditor
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        first = yield from c.write(fd, 0, BLOCK_SIZE)
        flusher = s.spawn(c.flush(fd))
        # Inside the SAN write's service time: the flush is in flight.
        yield s.sim.timeout(s.config.network.san_base_latency / 2)
        second = yield from c.write(fd, 0, BLOCK_SIZE)
        yield flusher
        assert c.cache.dirty_count == 1     # the rewrite still owes a flush
        yield from c.close(fd)              # ... which close pays
        return first, second
    first, second = run_gen(s, app())
    assert c.cache.dirty_count == 0
    flushed = [r.detail["tag"] for r in s.trace.select(kind="cache.flushed")]
    assert flushed == [first, second]
    disk = next(iter(s.disks.values()))
    assert [e.tag for e in disk.history if e.op == "write"][-1] == second
    report = ConsistencyAuditor(s).audit()
    assert report.lost_updates == [], report.summary()


def test_lock_cached_across_close():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        fid = c.fds.get(fd).file_id
        yield from c.close(fd)
        return fid
    fid = run_gen(s, app())
    # §3.1: lock retained after close, both client- and server-side
    assert c.locks.mode_of(fid) == LockMode.EXCLUSIVE
    assert s.server.locks.mode_of("c1", fid) == LockMode.EXCLUSIVE


def test_demand_downgrade_for_reader():
    """Writer holds X; a reader's open demands a downgrade to S —
    writer flushes and keeps clean pages."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def writer():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["tag"] = yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id

    def reader():
        yield s.sim.timeout(2.0)
        fd = yield from c2.open_file("/f", "r")
        out["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)

    s.spawn(writer())
    s.spawn(reader())
    s.run(until=30.0)
    assert out["read"] == [(0, out["tag"])]
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.SHARED
    assert s.server.locks.mode_of("c2", out["fid"]) == LockMode.SHARED
    # c1's pages survived the downgrade (clean)
    assert c1.cache.peek(out["fid"], 0) is not None


def test_demand_release_for_writer():
    """Second writer demands full release: holder flushes + invalidates."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def first():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["tag"] = yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id

    def second():
        yield s.sim.timeout(2.0)
        fd = yield from c2.open_file("/f", "w")
        out["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)

    s.spawn(first())
    s.spawn(second())
    s.run(until=30.0)
    assert out["read"] == [(0, out["tag"])]  # dirty data was flushed first
    assert s.server.locks.mode_of("c1", out["fid"]) == LockMode.NONE
    assert c1.cache.peek(out["fid"], 0) is None  # invalidated


def test_reacquire_after_stale():
    """After lease expiry the client revalidates locks lazily."""
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")
    out = {}

    def setup():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        out["fd"] = fd
        out["tag"] = yield from c.write(fd, 0, BLOCK_SIZE)
    run_gen(s, setup())

    # Simulate lease loss + server steal, then heal.
    s.control_net.isolate("c1")
    s.run(until=60.0)
    assert not c.connected
    s.control_net.heal_all()
    s.run(until=100.0)
    assert c.connected  # probe keepalive reconnected

    def reread():
        res = yield from c.read(out["fd"], 0, BLOCK_SIZE)
        return res
    res = run_gen(s, reread())
    # data was flushed in phase 4 before expiry; reread comes from disk
    assert res == [(0, out["tag"])]


def test_quiesce_rejects_new_requests():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def setup():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        return fd
    fd = run_gen(s, setup())
    s.control_net.isolate("c1")
    # run into phase 3 (suspect starts at 0.75 * 30 = 22.5 local)
    s.run(until=26.0)
    out = {}

    def op():
        try:
            yield from c.read(fd, 0, BLOCK_SIZE)
        except (ClientQuiescedError, ClientDisconnectedError) as exc:
            out["err"] = type(exc).__name__
    s.spawn(op())
    s.run(until=27.0)
    assert "err" in out
    assert c.ops_rejected >= 1


def test_file_stays_marked_until_its_last_compliance_ends():
    """A release demand that overtakes an unconfirmed downgrade: the
    downgrade's ACK (lost once, replayed to the retry) lands after the
    server executed the release, and writes SHARED into the table while
    the release is still unconfirmed.  Until both compliances are over
    the file must stay marked as being revoked: no operation may ride
    that entry and no oracle may take it for a usable lock."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1 = s.client("c1")
    out = {}

    def writer():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id
    run_gen(s, writer())
    fid, lc, sim = out["fid"], c1.lockclient, s.sim
    t0 = sim.now
    s.control_net.block("server", "c1")          # the downgrade's first ACK is lost
    s.spawn(lc._comply_demand(fid, LockMode.SHARED, "server"))
    s.run(until=t0 + 0.4)
    assert s.server.locks.mode_of("c1", fid) == LockMode.SHARED
    s.spawn(lc._comply_demand(fid, LockMode.EXCLUSIVE, "server"))
    s.run(until=t0 + 0.8)
    assert s.server.locks.mode_of("c1", fid) == LockMode.NONE
    # Let the downgrade's retry (one local second after its first try)
    # through, and only it.
    s.control_net.unblock("server", "c1")
    s.run(until=t0 + 1.2)
    s.control_net.block("server", "c1")
    assert c1.locks.mode_of(fid) == LockMode.SHARED   # the stale entry...
    assert fid in lc._revoking                        # ...is not usable
    s.control_net.unblock("server", "c1")
    s.run(until=t0 + 5.0)
    assert c1.locks.mode_of(fid) == LockMode.NONE
    assert fid not in lc._revoking


def test_a_leased_getattr_schedules_at_most_four_kernel_events():
    """The request and reply datagrams, the retry timer and the one
    event the reply ends: the renewing ACK leaves the lease daemon
    asleep, and the operation bracket schedules nothing."""
    s = make_system(n_clients=1)
    c = s.client("c1")
    run_gen(s, c.create("/f"))
    K = 20

    def app():
        yield from c.getattr("/f")
        assert c.phase == LeasePhase.VALID
        before = s.sim.events_scheduled
        for _ in range(K):
            yield from c.getattr("/f")
        return s.sim.events_scheduled - before
    assert run_gen(s, app()) <= 4 * K


def test_phase4_flush_waits_for_in_flight_operations():
    """§3.2: the phase-4 flush starts once the operations still inside
    their bracket have left it, and not before."""
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        yield from c.write(fd, 0, BLOCK_SIZE)
    run_gen(s, app())
    leave = s.sim.event()

    def straggler():
        with c._busy:
            yield leave
    s.spawn(straggler())
    s.control_net.isolate("c1")
    while c.phase != LeasePhase.FLUSH:
        assert c.phase != LeasePhase.EXPIRED
        s.run(until=s.sim.now + 0.01)
    s.run(until=s.sim.now + 0.5)
    assert c.cache.dirty_count == 1 and c._busy.drained is not None
    leave.succeed()
    s.run(until=s.sim.now + 0.5)
    assert c.cache.dirty_count == 0 and c._busy.drained is None
    assert c.app_errors == 0


# -- brackets close on every exit ---------------------------------------------

def _mid_op(s, pred, limit=5.0):
    """Advance the simulation in small steps until ``pred()`` holds."""
    deadline = s.sim.now + limit
    while not pred():
        assert s.sim.now < deadline, "the operation never got there"
        s.run(until=s.sim.now + 1e-4)


def _cut_link(s):
    s.control_net.block_pair("c1", "server")


def _cut_san(s):
    s.san.block_pair("c1", sorted(s.san.devices)[0])


_BRACKET_OPS = {
    # op: (call, is it mid-operation, how a failure cuts it short)
    "read": (lambda c, fd: c.read(fd, 0, BLOCK_SIZE),
             lambda s, c, fid: c.lockclient._file_inflight, _cut_san),
    "write": (lambda c, fd: c.write(fd, 0, 16 * BLOCK_SIZE),
              lambda s, c, fid: c.lockclient._file_inflight, _cut_link),
    "read_ranges_locked": (
        lambda c, fd: c.read_ranges_locked(
            fd, [(0, BLOCK_SIZE), (2 * BLOCK_SIZE, BLOCK_SIZE)]),
        lambda s, c, fid: s.server.locks.holdings("c1", fid, SCOPED), _cut_san),
    "write_ranges_locked": (
        lambda c, fd: c.write_ranges_locked(
            fd, [(0, BLOCK_SIZE), (2 * BLOCK_SIZE, BLOCK_SIZE)]),
        lambda s, c, fid: s.server.locks.holdings("c1", fid, SCOPED), _cut_san),
    "create": (lambda c, fd: c.create("/g"),
               lambda s, c, fid: s.server.barrier._cache_pending, _cut_link),
}


def test_the_operation_bracket_allocates_nothing():
    """A ``with`` holds the ``__exit__`` it looked up for the whole
    operation; the bracket hands out the one bound at construction."""
    busy = make_system(n_clients=1).client("c1")._busy
    assert busy.__exit__ is busy.__exit__


@pytest.mark.parametrize("exit_", ["return", "error", "interrupt"])
@pytest.mark.parametrize("op", sorted(_BRACKET_OPS))
def test_every_bracket_closes_on_every_exit(op, exit_):
    """The operation bracket, the lock pin, the byte-range locks and the
    cache barrier are released however the operation ends: it returns, a
    cut link or SAN path fails it midway, or its process is interrupted
    (an interrupted range acquire may leave its grant to the lease)."""
    from repro.core.config import NetCacheConfig
    from repro.sim.events import Interrupt
    s = make_system(n_clients=1, netcache=NetCacheConfig(
        n_nodes=2 if op == "create" else 0))
    c = s.client("c1")

    def setup():
        yield from c.create("/f", size=4 * BLOCK_SIZE)
        fd = yield from c.open_file("/f", "w")
        if op == "create":
            # Make c1's cache node a holder of the listing "/g" joins,
            # so the create's barrier has a node to wait for.
            yield from c.readdir("/")
        return fd, c.fds.get(fd).file_id
    fd, fid = run_gen(s, setup())
    call, mid_op, cut = _BRACKET_OPS[op]
    outcome = []

    def run_op():
        try:
            outcome.append((yield from call(c, fd)))
        except Exception as exc:
            outcome.append(exc)
    proc = s.spawn(run_op())
    if exit_ != "return":
        _mid_op(s, lambda: mid_op(s, c, fid))
        if exit_ == "interrupt":
            proc.interrupt()
        else:
            cut(s)
    s.run(until=s.sim.now + 120.0)
    [result] = outcome
    if exit_ == "interrupt":
        assert isinstance(result, Interrupt)
    else:
        assert isinstance(result, Exception) == (exit_ == "error")
        assert not isinstance(result, Interrupt)
        assert s.server.locks.holdings("c1", fid, SCOPED) == []
    assert c._busy.in_flight == 0 and c._busy.drained is None
    assert c.lockclient._file_inflight == {}
    assert fid not in c.lockclient._revoking
    assert s.server.barrier._cache_pending == set()


@pytest.mark.parametrize("exit_", ["return", "error", "interrupt"])
def test_revocation_mark_clears_however_a_compliance_ends(exit_):
    """A second client's open makes c1 comply with a demand: mark the
    file as being revoked, flush its dirty pages, yield the lock.  The
    mark goes however the compliance ends: it returns, a control link
    cut mid-flush fails its release (the lock is forfeited), or its
    process is interrupted mid-flush."""
    from repro.sim.events import Interrupt
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    lc = c1.lockclient

    def dirty():
        yield from c1.create("/f", size=16 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, 16 * BLOCK_SIZE)
        return c1.fds.get(fd)
    of = run_gen(s, dirty())
    fid = of.file_id
    comply, compliances, outcome = lc._comply_demand, [], []

    def observed(*args):
        compliances.append(s.sim.active_process)
        try:
            outcome.append((yield from comply(*args)))
        except Exception as exc:
            outcome.append(exc)
    lc._comply_demand = observed

    def open_for_writing():
        try:
            yield from c2.open_file("/f", "w")
        except Exception:
            pass
    s.spawn(open_for_writing())
    _mid_op(s, lambda: fid in lc._revoking)
    assert c1.cache.dirty_count > 0            # mid-flush
    if exit_ == "interrupt":
        compliances[0].interrupt()
    elif exit_ == "error":
        _cut_link(s)
    s.run(until=s.sim.now + 120.0)
    if exit_ == "interrupt":
        assert isinstance(outcome[0], Interrupt)
    else:
        assert outcome[0] is None
        assert c1.locks.mode_of(fid) == LockMode.NONE
        assert of.stale == (exit_ == "error")      # forfeited
    assert fid not in lc._revoking
    assert lc._file_inflight == {}


def test_a_dead_system_with_a_parked_operation_is_freed_in_one_collection():
    """The garbage collector closes an operation suspended inside the
    in-flight bracket; leaving the bracket then must schedule nothing,
    or the new heap entry revives the finished simulator for one more
    collection.  The weakref alone cannot show that (the collector
    clears it before finalizers run), so live simulators are counted."""
    def simulators():
        return sum(1 for o in gc.get_objects() if isinstance(o, Simulator))

    def park():
        s = make_system(n_clients=1)
        c1 = s.client("c1")
        s.server.crash()  # the create's reply never comes
        s.spawn(c1.create("/f", size=BLOCK_SIZE))
        s.run(until=0.1)
        assert c1._busy.in_flight == 1
        c1._busy.wait_drained()
        return weakref.ref(s.sim)

    while gc.collect():
        pass
    before = simulators()
    sim = park()
    gc.collect()
    assert sim() is None
    assert simulators() == before
