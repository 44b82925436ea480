"""Transport-lease NACKs vs application error replies.

§3.3's NACK means "I am timing out your lease; your cache is invalid".
An ordinary error reply (duplicate create, missing path, reassert
conflict) must NOT be mistaken for it — conflating the two quiesces a
perfectly healthy client for a full lease period (a real bug this suite
caught).
"""

import pytest

from repro.lease.phases import LeasePhase
from repro.net import NackError
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def test_application_nack_does_not_touch_the_lease():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def app():
        yield from c.create("/f", size=BLOCK_SIZE)
        with pytest.raises(NackError):
            yield from c.create("/f")        # duplicate -> app error
        with pytest.raises(NackError):
            yield from c.getattr("/missing")  # lookup failure -> app error
    run_gen(s, app())
    assert c.lease is not None
    assert c.lease.nacks_seen == 0
    assert c.lease.phase() == LeasePhase.VALID
    assert c.lease.active

    # The client keeps full service immediately afterwards.
    def more():
        yield from c.getattr("/f")
    run_gen(s, more())
    assert c.ops_rejected == 0


def test_gatekeeper_nack_does_invalidate_the_lease():
    s = make_system(n_clients=1)
    c = s.client("c1")

    def setup():
        yield from c.create("/f", size=BLOCK_SIZE)
    run_gen(s, setup())
    # Make the server suspect c1, then have c1 talk to it.
    s.server.authority.mark_suspect("c1")
    out = {}

    def talk():
        try:
            yield from c.getattr("/f")
        except NackError:
            out["nacked"] = True
    run_gen(s, talk())
    assert out.get("nacked")
    assert c.lease.nacks_seen == 1
    assert c.lease.phase() >= LeasePhase.SUSPECT  # §3.3 reaction


def test_reassert_conflict_costs_one_object_not_the_lease():
    """A refused reassertion forfeits that object only; the client keeps
    serving everything else without a quiesce."""
    from repro.net import MsgKind
    from repro.net.message import Reassert
    from repro.locks import LockMode
    s = make_system(n_clients=2, writeback_interval=1000.0)
    c1, c2 = s.client("c1"), s.client("c2")
    out = {}

    def setup():
        yield from c1.create("/a", size=BLOCK_SIZE)
        yield from c1.create("/b", size=BLOCK_SIZE)
        fda = yield from c1.open_file("/a", "w")
        fdb = yield from c1.open_file("/b", "w")
        out["fa"] = c1.fds.get(fda).file_id
        out["fb"] = c1.fds.get(fdb).file_id
        out["fdb"] = fdb
        yield from c1.write(fdb, 0, BLOCK_SIZE)
    run_gen(s, setup())

    s.server.crash()
    s.run(until=s.sim.now + 1.0)
    s.server.restart()

    # c2 steals the race for /a before c1's reassertion.
    def impostor():
        yield from c2.endpoint.request(
            "server", MsgKind.LOCK_REASSERT,
            Reassert(out["fa"], int(LockMode.EXCLUSIVE)))
    run_gen(s, impostor())
    s.run(until=s.sim.now + 30.0)  # c1 notices the epoch and reasserts

    assert c1.locks.mode_of(out["fa"]) == LockMode.NONE       # forfeited
    assert c1.locks.mode_of(out["fb"]) == LockMode.EXCLUSIVE  # kept
    assert c1.lease.active                                    # no quiesce
    assert c1.cache.peek(out["fb"], 0) is not None            # /b cache intact

    def use_b():
        return (yield from c1.read(out["fdb"], 0, BLOCK_SIZE))
    res = run_gen(s, use_b())
    assert res[0][1] is not None
