"""Intent-based locking and lock batching (Lustre-style): *the*
client/server protocol.

The operation rides the lock request: open, growth-setattr and batched
range acquires each cost one round trip, and close defers its census
update onto the next batch.  These tests pin the per-op message counts
as absolute numbers; ``SPLIT_CYCLE_RPCS`` records what the deleted
split-op protocol paid for the same cycle.
"""

import pytest

from repro.analysis import ConsistencyAuditor
from repro.locks import LockMode
from repro.net.message import (Batch, Create, MsgKind, NackError, OpenIntent,
                               PathOnly, Setattr)
from repro.storage import BLOCK_SIZE

from tests.conftest import (drive, make_system, read_via, run_gen,
                            touch_all)


def _setup_file(s, path="/f", blocks=8):
    c1 = s.client("c1")
    run_gen(s, c1.create(path, size=blocks * BLOCK_SIZE))
    return c1


# -- one round trip per op -------------------------------------------------

def test_intent_open_is_one_rpc():
    s = make_system()
    c1 = _setup_file(s)
    before = dict(c1.endpoint.rpc_sent)

    def work():
        fd = yield from c1.open_file("/f", "w")
        return fd
    run_gen(s, work())
    sent = {k: n - before.get(k, 0) for k, n in c1.endpoint.rpc_sent.items()
            if n != before.get(k, 0)}
    assert sent == {MsgKind.LOCK_INTENT: 1}


def test_intent_open_carries_grant_and_attrs():
    s = make_system()
    c1 = _setup_file(s)

    def work():
        fd = yield from c1.open_file("/f", "w")
        of = c1.fds.get(fd)
        # The single reply delivered the lock, the attrs and the extent
        # map: a write needs no further metadata round trip.
        assert of.lock == LockMode.EXCLUSIVE
        assert of.extents.size_bytes == 8 * BLOCK_SIZE
        tag = yield from c1.write(fd, 0, BLOCK_SIZE)
        got = yield from c1.read(fd, 0, BLOCK_SIZE)
        assert got[0][1] == tag
    run_gen(s, work())


def test_growth_write_folds_setattr_into_intent():
    s = make_system()
    c1 = s.client("c1")
    run_gen(s, c1.create("/g", size=BLOCK_SIZE))

    def work():
        fd = yield from c1.open_file("/g", "w")
        before = dict(c1.endpoint.rpc_sent)
        yield from c1.write(fd, 0, 4 * BLOCK_SIZE)  # grows the file
        sent = {k: n - before.get(k, 0) for k, n in c1.endpoint.rpc_sent.items()
                if n != before.get(k, 0)}
        assert sent == {MsgKind.LOCK_INTENT: 1}
        assert MsgKind.SETATTR not in sent
        of = c1.fds.get(fd)
        assert of.extents.size_bytes == 4 * BLOCK_SIZE
    run_gen(s, work())


def test_close_defers_census_onto_next_batch():
    s = make_system()
    c1 = _setup_file(s)
    srv = s.server_node("server")

    def work():
        fd = yield from c1.open_file("/f", "r")
        fid = c1.fds.get(fd).file_id
        yield from c1.close(fd)
        assert srv.closes_by_file.get(fid, 0) == 0  # no RPC yet
        # The deferred close rides the next open's LOCK_BATCH.
        fd2 = yield from c1.open_file("/f", "r")
        assert srv.closes_by_file.get(fid, 0) == 1
        yield from c1.close(fd2)
    run_gen(s, work())
    # Still pending — deferral is not loss; it drains on the next batch.
    assert s.server_node("server").closes_by_file[1] == 1


def test_batched_range_acquire_one_rpc_per_batch():
    s = make_system()
    c1 = _setup_file(s)

    def work():
        fd = yield from c1.open_file("/f", "r")
        before = dict(c1.endpoint.rpc_sent)
        yield from c1.read_ranges_locked(
            fd, [(0, BLOCK_SIZE), (BLOCK_SIZE, BLOCK_SIZE),
                 (2 * BLOCK_SIZE, BLOCK_SIZE)])
        sent = {k: n - before.get(k, 0) for k, n in c1.endpoint.rpc_sent.items()
                if n != before.get(k, 0)}
        # One acquire batch + one release batch + the SAN reads; no
        # per-range datagrams of any kind.
        assert sent == {MsgKind.LOCK_BATCH: 2}
    run_gen(s, work())


# -- parity: N one-range calls and one N-range call compute the same thing --

@pytest.mark.parametrize("batched", [False, True])
def test_ranges_api_parity(batched):
    s = make_system()
    c1 = _setup_file(s)
    ranges = [(0, BLOCK_SIZE), (BLOCK_SIZE, BLOCK_SIZE)]

    def work():
        fd = yield from c1.open_file("/f", "w")
        if batched:
            tags = yield from c1.write_ranges_locked(fd, ranges)
            got = yield from c1.read_ranges_locked(fd, ranges)
        else:
            tags, got = [], []
            for off, n in ranges:
                tags.append((yield from c1.write_range_locked(fd, off, n)))
            for off, n in ranges:
                got.append((yield from c1.read_range_locked(fd, off, n)))
        return tags, got
    tags, got = run_gen(s, work())
    assert len(tags) == 2
    assert [blk[0][1] for blk in got] == tags
    report = ConsistencyAuditor(s).audit()
    assert report.safe, report.summary()


#: Client RPCs the deleted split-op protocol paid for the E-intent cycle
#: (OPEN, growth SETATTR, 4 x (RANGE_ACQUIRE + RANGE_RELEASE), CLOSE).
SPLIT_CYCLE_RPCS = 11


def test_intents_cut_messages_per_op_at_least_2x():
    """The op cycle from E-intent: open(w), growth write, 4 contiguous
    locked ranges, close.  open = 1 RPC, growth write = 1, the four
    ranges = 2 batches, close = 0: 4 RPCs for 7 ops, against the split
    protocol's 11."""
    s = make_system()
    c = s.client("c1")
    run_gen(s, c.create("/e", size=BLOCK_SIZE))
    steps = {}

    def work():
        def sent():
            return sum(n for k, n in c.endpoint.rpc_sent.items()
                       if k != MsgKind.KEEPALIVE)
        mark = sent()
        fd = yield from c.open_file("/e", "w")
        steps["open"], mark = sent() - mark, sent()
        yield from c.write(fd, 0, 4 * BLOCK_SIZE)
        steps["growth_write"], mark = sent() - mark, sent()
        yield from c.write_ranges_locked(
            fd, [(i * BLOCK_SIZE, BLOCK_SIZE) for i in range(4)])
        steps["ranges"], mark = sent() - mark, sent()
        yield from c.close(fd)
        steps["close"] = sent() - mark
    before_ops = c.ops_completed
    run_gen(s, work())
    assert steps == {"open": 1, "growth_write": 1, "ranges": 2, "close": 0}
    ops = c.ops_completed - before_ops
    assert ops == 7
    on = sum(steps.values()) / ops
    assert on <= 0.6
    assert (SPLIT_CYCLE_RPCS / ops) / on >= 2.0


def test_e_intent_cycle_stays_under_0_6_client_msgs_per_op():
    from repro.harness.intent import intent_point
    p = intent_point(seed=0, n_clients=64, duration=5.0)
    assert p["ops"] > 0
    assert p["msgs_per_op"] <= 0.6      # keep-alives excluded
    assert set(p["by_kind"]) <= {MsgKind.CREATE, MsgKind.LOCK_INTENT,
                                 MsgKind.LOCK_BATCH, MsgKind.KEEPALIVE}


# -- server-side semantics -------------------------------------------------

def test_unknown_intent_op_nacked():
    """``LOCK_INTENT`` takes only an intent schema, so the sender refuses
    anything else; a batch is not checked element by element, and the
    server NACKs the sub-op that is no intent."""
    s = make_system()
    c1 = _setup_file(s)

    def probe():
        with pytest.raises(TypeError, match="OpenIntent or Setattr"):
            yield from c1._rpc(MsgKind.LOCK_INTENT, PathOnly("/f"), "server")
        reply = yield from c1._rpc(
            MsgKind.LOCK_BATCH, Batch((PathOnly("/f"),)), "server")
        return reply.payload["results"]
    [result] = run_gen(s, probe())
    assert not result["ok"] and "not an intent" in result["error"]


def test_batch_subop_failure_does_not_abort_batch():
    s = make_system()
    c1 = _setup_file(s)

    def probe():
        reply = yield from c1._rpc(
            MsgKind.LOCK_BATCH,
            Batch((OpenIntent("/missing"), OpenIntent("/f"))), "server")
        return reply.payload["results"]
    results = run_gen(s, probe())
    assert [r["ok"] for r in results] == [False, True]
    assert results[1]["file_id"] == 1


@pytest.mark.parametrize("cache_nodes", [0, 2])
def test_setattr_intent_and_create_refusal_answer_like_the_plain_kinds(
        cache_nodes):
    """The growth-setattr intent runs the SETATTR body (behind the
    netcache barrier when there is a cache tier) and adds the grant: same
    payload plus ``lock``.  Of two racing CREATEs of one path one is
    refused ``exists``: by the check before the barrier without cache
    nodes, by the one after it with them."""
    from repro.core.config import NetCacheConfig
    s = make_system(netcache=NetCacheConfig(n_nodes=cache_nodes))
    c1, c2 = s.client("c1"), s.client("c2")

    def rpc(client, kind, payload):
        reply = yield from client.endpoint.request("server", kind, payload)
        return dict(reply.payload)

    def grow():
        made = yield from rpc(c1, MsgKind.CREATE, Create("/p"))
        fid = made["file_id"]
        grown = yield from rpc(c1, MsgKind.LOCK_INTENT,
                               Setattr(fid, size=2 * BLOCK_SIZE))
        assert grown.pop("lock") == int(LockMode.EXCLUSIVE)
        again = yield from rpc(c1, MsgKind.SETATTR,
                               Setattr(fid, size=2 * BLOCK_SIZE))
        assert set(grown) == set(again) == {
            "attrs", "layout_gen", "extents_from", "extents"}
        assert grown["extents"] == again["extents"]
        assert grown["attrs"]["size"] == 2 * BLOCK_SIZE
    run_gen(s, grow())
    for node in sorted(s.netcache):   # each holds the listing "/r" joins
        read_via(s, node, "/")

    sent_before = len(s.trace.select(kind="msg.send", node="server"))
    answers = []

    def create(client):
        try:
            made = yield from rpc(client, MsgKind.CREATE,
                                  Create("/r", BLOCK_SIZE))
            answers.append(("ack", made["file_id"]))
        except NackError as exc:
            answers.append(("nack", exc.nack.payload))
    drive(s, create(c1), create(c2), until=s.sim.now + 10.0)
    assert sorted(answers) == [("ack", 2), ("nack", {"error": "exists"})]
    sent = s.trace.select(kind="msg.send", node="server")[sent_before:]
    invalidations = [rec for rec in sent
                     if rec.detail["msg_kind"] == MsgKind.CACHE_INVALIDATE]
    # With cache nodes both creates passed the first check and ran a
    # barrier round; the loser was refused after it, leaking nothing.
    assert len(invalidations) == 2 * cache_nodes
    assert s.server.metadata.file_count == 2
    assert s.server.barrier._cache_pending == set()


# -- contention: the lock discipline holds on the intent path --------------

def test_intent_open_respects_exclusive_holder():
    s = make_system(n_clients=2)
    c1, c2 = s.client("c1"), s.client("c2")
    log = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        log["tag"] = yield from c1.write(fd, 0, BLOCK_SIZE)
        yield s.sim.timeout(30.0)
        yield from c1.close(fd)

    def contender():
        yield s.sim.timeout(5.0)
        fd = yield from c2.open_file("/f", "r")   # waits for demand/downgrade
        log["t_open"] = s.sim.now
        log["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)
    s.spawn(holder())
    s.spawn(contender())
    s.run(until=120.0)
    assert log["t_open"] > 5.0                    # actually blocked
    assert log["read"][0][1] == log["tag"]        # saw the flushed write
    report = ConsistencyAuditor(s).audit()
    assert report.safe, report.summary()


# -- observability ---------------------------------------------------------

def test_messages_per_op_in_metrics_snapshot():
    """The run collector's ``messages_per_op`` series is the one fleet
    definition, ``fleet_rpcs``: the idle client contributes no RPCs, so
    it reduces to c1's own non-keep-alive RPCs per op."""
    from repro.client.node import fleet_rpcs
    from repro.obs import runlog
    with runlog.collecting() as collector:
        s = touch_all(make_system())
    c1 = _setup_file(s)

    def work():
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        yield from c1.close(fd)
    run_gen(s, work())
    fleet = fleet_rpcs(s.pool.iter_active())
    assert MsgKind.LOCK_INTENT in fleet["by_kind"]
    own = sum(n for k, n in c1.endpoint.rpc_sent.items()
              if k != MsgKind.KEEPALIVE)
    assert fleet["msgs_per_op"] == own / c1.ops_completed > 0
    (run,) = collector.document()["runs"]
    assert run["series"]["messages_per_op"]["values"][-1] == \
        fleet["msgs_per_op"]
