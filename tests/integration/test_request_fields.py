"""Every handler acts on the fields its senders ship.

The request schemas make a field a sender sets and no handler declares
a TypeError; what they cannot show is a handler that receives a field
and ignores it.  Each ``check_*`` drives one real handler through the
shipped sender and asserts the effect of the field; the tests here run
them on the shipped system, and ``tests/lint/test_knockouts.py`` runs
them on a system with the pre-fix handler put back.
"""

from repro.net.message import (DataWrite, Getattr, MsgKind, NackError,
                               RangeDemand)
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def check_close_census(s):
    """The deferred close census rides the next open's batch and raises
    ``closes_by_file`` for its own file only."""
    c = s.client("c1")

    def app():
        fids = []
        for path in ("/a", "/b"):
            fids.append((yield from c.create(path, size=BLOCK_SIZE)))
        fd = yield from c.open_file("/a", "r")
        yield from c.close(fd)
        yield from c.open_file("/b", "r")           # carries the close
        return fids
    fid_a, fid_b = run_gen(s, app())
    assert s.server.closes_by_file == {fid_a: 1}
    assert fid_b not in s.server.closes_by_file


def check_data_write_bytes(s):
    """``data_bytes`` is what rode the control network: the server
    counts it, and the datagram costs its header plus that much."""
    c = s.client("c1")
    fid = run_gen(s, c.create("/f", size=BLOCK_SIZE))
    n = BLOCK_SIZE // 3                 # not the block size: it is read
    served, wire = s.server.data_bytes_served, s.control_net.bytes_delivered
    datagrams = s.control_net.delivered_count

    def ship():
        yield from c.endpoint.request("server", MsgKind.DATA_WRITE,
                                      DataWrite(fid, 0, "t1", n))
    run_gen(s, ship())
    assert s.server.data_bytes_served - served == n
    assert s.control_net.delivered_count - datagrams == 2
    # The request's header and data, then the ACK's bare header.
    assert s.control_net.bytes_delivered - wire == (64 + n) + 64


def check_range_demand_census(s):
    """A range demand counts against the file it names; a bare one is a
    liveness ping and counts nowhere."""
    c = s.client("c1")
    fid = run_gen(s, c.create("/f", size=BLOCK_SIZE))

    def probe():
        yield from s.server.endpoint.request("c1", MsgKind.RANGE_DEMAND,
                                             RangeDemand(fid))
        yield from s.server.endpoint.request("c1", MsgKind.RANGE_DEMAND,
                                             RangeDemand())  # a bare ping
    run_gen(s, probe())
    assert c.lockclient.range_demands_seen == {fid: 1}


def check_getattr_by_path_and_id(s):
    """GETATTR answers alike by path and by file id, and refuses a body
    naming neither."""
    c = s.client("c1")
    fid = run_gen(s, c.create("/f", size=BLOCK_SIZE))

    def stat(body):
        reply = yield from c.endpoint.request("server", MsgKind.GETATTR,
                                              body)
        return reply.payload
    by_path = run_gen(s, stat(Getattr(path="/f")))
    by_id = run_gen(s, stat(Getattr(file_id=fid)))
    assert by_path == by_id
    assert by_id["file_id"] == fid and by_id["attrs"]["size"] == BLOCK_SIZE

    def neither():
        try:
            yield from c.endpoint.request("server", MsgKind.GETATTR,
                                          Getattr())
        except NackError as exc:
            return exc.nack.payload["error"]
    assert run_gen(s, neither()) == "getattr: no path or file_id"


def test_a_close_intent_counts_the_file_it_names():
    check_close_census(make_system(n_clients=1))


def test_a_function_shipped_write_accounts_the_bytes_it_carries():
    check_data_write_bytes(make_system(n_clients=1))


def test_a_range_demand_is_counted_against_the_file_it_names():
    check_range_demand_census(make_system(n_clients=1))


def test_getattr_answers_by_path_and_by_file_id():
    check_getattr_by_path_and_id(make_system(n_clients=1))
