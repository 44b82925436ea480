"""End-to-end partition scenarios (paper Figs. 2, 4, 5)."""

import pytest

from repro.analysis import ConsistencyAuditor, unavailability_after
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _holder_and_contender(s, horizon=120.0):
    """Standard E2 scenario; returns the shared log."""
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def holder():
        yield from c1.create("/f", size=2 * BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["tag"] = yield from c1.write(fd, 0, 2 * BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id

    def cut():
        yield s.sim.timeout(5.0)
        s.control_net.isolate("c1")

    def contender():
        yield s.sim.timeout(8.0)
        while s.sim.now < horizon:
            try:
                fd = yield from c2.open_file("/f", "w")
                out["takeover"] = s.sim.now
                out["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)
                return
            except Exception:
                yield s.sim.timeout(1.0)
    s.spawn(holder())
    s.spawn(cut())
    s.spawn(contender())
    s.run(until=horizon)
    return out


def test_full_lease_recovery_is_safe_and_bounded():
    s = make_system(n_clients=2, writeback_interval=1000.0)
    out = _holder_and_contender(s)
    # Bounded unavailability ~ detection + tau(1+eps)
    wait = s.config.lease.tau * (1 + s.config.lease.epsilon)
    assert 5.0 + wait * 0.9 < out["takeover"] < 5.0 + wait + 20.0
    # The isolated holder's dirty data was hardened in phase 4 first.
    assert out["read"][0][1] == out["tag"]
    report = ConsistencyAuditor(s).audit()
    assert report.safe
    # The holder reported nothing lost (flush succeeded).
    assert s.client("c1").app_errors == 0


def test_steal_never_precedes_client_expiry_in_system():
    """System-level Theorem 3.1: the lock steal happens at-or-after the
    isolated client's lease expiry, for several seeds/skews."""
    for seed in (1, 2, 3, 4):
        s = make_system(n_clients=2, seed=seed, writeback_interval=1000.0)
        _holder_and_contender(s)
        steal = [r.time for r in s.trace.select(kind="lease.steal")]
        expire = [r.time for r in s.trace.select(kind="lease.expire",
                                                 node="c1")]
        assert steal and expire, f"seed {seed} missing events"
        assert min(expire) <= min(steal) + 1e-9, f"seed {seed}: steal early!"


def test_isolated_client_reports_disconnect_to_apps():
    s = make_system(n_clients=2)
    out = _holder_and_contender(s)
    c1 = s.client("c1")
    errs = {}

    def late_op():
        try:
            yield from c1.getattr("/f")
        except Exception as exc:
            errs["type"] = type(exc).__name__
    s.spawn(late_op())
    s.run(until=s.sim.now + 2.0)
    assert errs["type"] in ("ClientDisconnectedError", "ClientQuiescedError")


def test_transient_partition_nack_flow():
    """Fig. 5: heal before the steal; the client's next request is NACKed
    and it recovers cleanly."""
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def holder():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["tag"] = yield from c1.write(fd, 0, BLOCK_SIZE)

    def schedule():
        yield s.sim.timeout(5.0)
        s.control_net.isolate("c1")
        yield s.sim.timeout(8.0)
        s.control_net.heal_all()
    s.spawn(holder())
    s.spawn(schedule())

    def contender():
        yield s.sim.timeout(6.0)
        while s.sim.now < 100.0:
            try:
                yield from c2.open_file("/f", "w")
                out["takeover"] = s.sim.now
                return
            except Exception:
                yield s.sim.timeout(1.0)
    s.spawn(contender())

    # After the heal, c1 keeps trying to operate.
    def chatty():
        while s.sim.now < 100.0 and not out.get("nacked"):
            yield s.sim.timeout(1.0)
            if s.sim.now < 13.5:
                continue
            try:
                yield from c1.getattr("/f")
            except Exception:
                if c1.lease and c1.lease.nacks_seen:
                    out["nacked"] = s.sim.now
    s.spawn(chatty())
    s.run(until=100.0)

    assert out.get("nacked"), "client never observed the NACK"
    assert out.get("takeover"), "contender never got the lock"
    report = ConsistencyAuditor(s).audit()
    assert report.safe
    # After the steal resolves and c1 probes again, it reconnects.
    assert c1.connected


def test_client_crash_recovery():
    """A crashed client (volatile state gone) lets the lease expire; the
    server steals and the file stays available to others."""
    s = make_system(n_clients=2, writeback_interval=2.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def holder():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        out["tag"] = yield from c1.write(fd, 0, BLOCK_SIZE)
        out["fid"] = c1.fds.get(fd).file_id

    def crash():
        yield s.sim.timeout(6.0)  # after write-back hardened the data
        c1.endpoint.crash()
        c1.cache.invalidate_all()

    def contender():
        yield s.sim.timeout(8.0)
        while s.sim.now < 120.0:
            try:
                fd = yield from c2.open_file("/f", "w")
                out["takeover"] = s.sim.now
                out["read"] = yield from c2.read(fd, 0, BLOCK_SIZE)
                return
            except Exception:
                yield s.sim.timeout(1.0)
    s.spawn(holder())
    s.spawn(crash())
    s.spawn(contender())
    s.run(until=120.0)
    assert out.get("takeover")
    assert out["read"][0][1] == out["tag"]


def test_san_partition_leases_cannot_help():
    """§3: for SAN failures leasing offers no improvement — the client
    stays leased (control net fine) but data I/O errors out."""
    s = make_system(n_clients=1, writeback_interval=1000.0)
    c1 = s.client("c1")
    out = {}

    def app():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        for dev in s.disks:
            s.san.block_pair("c1", dev)
        n = yield from c1.flush(fd)
        out["flushed"] = n
    run_gen(s, app())
    assert out["flushed"] == 0
    assert c1.app_errors >= 1       # loss reported, not silent
    assert c1.connected             # lease still fine
    report = ConsistencyAuditor(s).audit()
    assert report.lost_updates == []  # reported => stranded, not silent
    assert len(report.stranded_reported) == 1


def test_final_after_a_suspect_mark_is_covered_by_theorem_3_1():
    """The lease model's theorem-3.1 check over a schedule where a client is marked
    suspect while one of its transactions is parked.  A one-way cut
    (server → c1) makes a server-initiated probe to c1 fail; c1's own
    request gets through just before the mark, parks, and its final
    reaches c1 after the cut heals — renewing from the admitted send
    time, so the lease it grants still ends before the steal."""
    from repro.net import MsgKind
    from repro.net.message import RangeDemand
    from repro.simtest.oracles import LeaseModelOracle

    s = make_system(n_clients=1)
    server = s.server
    c1 = s.client("c1")

    def parked(msg):
        yield s.sim.timeout(0.4)
        return ("ack", {})
    server.endpoint.register("test.park", parked)
    out = {}

    def probe():
        yield s.sim.timeout(10.0)
        s.control_net.block("server", "c1")
        try:
            yield from server.endpoint.request("c1", MsgKind.RANGE_DEMAND,
                                               RangeDemand())
        except Exception as exc:         # the delivery failure marks c1
            out["probe"] = type(exc).__name__

    def request():
        yield s.sim.timeout(13.9)        # just before the probe gives up
        out["sent_local"] = c1.endpoint.local_now()
        reply = yield from c1.endpoint.request("server", "test.park", {})
        out["final_at"] = s.sim.now
        out["reply"] = reply

    def heal():
        yield s.sim.timeout(13.95)
        s.control_net.unblock("server", "c1")
    for gen in (probe(), request(), heal()):
        s.spawn(gen)
    s.run(until=60.0)
    [suspect] = s.trace.select(kind="lease.suspect")
    [steal] = s.trace.select(kind="lease.steal")
    assert out["probe"] == "DeliveryError"
    assert suspect.time < out["final_at"] < steal.time
    renewed = [r for r in s.trace.select(kind="lease.renewed", node="c1")
               if r.time == out["final_at"]]
    assert [r.get("start_local") for r in renewed] == [out["sent_local"]]
    expiry = s.clocks.clocks["c1"].global_time(
        server.authority.contract.client_expiry_local(out["sent_local"]))
    assert expiry < steal.time
    assert LeaseModelOracle().check_final(s) == []
