"""One reply path (DESIGN.md §18): the transport alone builds replies,
shows them to observers and reads the reply stamp.

Lease renewal (§3.1) and the restart epoch (§6) both ride the ACK, and
three recovery holes were a reply class that skipped one of several
hand-written dispatch or stamping sites.  A census keeps reply
construction inside ``repro.net``; behaviour tests watch a running
system and record who calls each observer and who reads the stamp.
``tests/lint/test_knockouts.py`` puts the old second sites back and
checks that these fail.
"""

import ast
import sys
from pathlib import Path

from repro.net import ReplyObserver
from repro.net.message import MsgKind, NackError, OpenIntent
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen, touch_all

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# -- census: only the transport builds a reply -------------------------------

def reply_builds(source):
    """Line numbers of every ``Ack(...)`` / ``Nack(...)`` call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in ("Ack", "Nack")
                 or getattr(node.func, "attr", None) in ("Ack", "Nack"))]


def test_replies_are_built_only_inside_repro_net():
    outside, inside = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        lines = reply_builds(path.read_text())
        (inside if rel.startswith("net/") else outside).extend(
            f"{rel}:{n}" for n in lines)
    assert outside == []
    # The two sends of ``Endpoint._reply`` and the batch refusal.
    assert len(inside) == 3


def test_a_refused_batch_sub_op_raises_as_a_lone_intent_would():
    op = OpenIntent("/f")
    err = NackError.refused_in_batch("c1", "server", op, "no such file")
    assert (err.msg.src, err.msg.dst, err.msg.kind, err.msg.payload) == (
        "c1", "server", MsgKind.LOCK_INTENT, op)
    nack = err.nack
    assert (nack.kind, nack.src, nack.dst) == (MsgKind.NACK, "server", "c1")
    assert nack.reply_to == err.msg.msg_id and not nack.lease_nack
    assert nack.payload == {"error": "no such file"}


# -- behaviour: one delivery site, one stamp reader ---------------------------

def traffic(system):
    """A create, a refused create, writes and a lock demand, on two
    clients."""
    c1, c2 = system.client("c1"), system.client("c2")

    def first():
        yield from c1.create("/f", size=BLOCK_SIZE)
        try:
            yield from c1.create("/f")
        except NackError:
            pass
        fd = yield from c1.open_file("/f", "w")
        yield from c1.write(fd, 0, BLOCK_SIZE)
        yield from c1.close(fd)

    def second():
        fd = yield from c2.open_file("/f", "w")     # demands c1's lock
        yield from c2.write(fd, 0, 100)
        yield from c2.close(fd)
    run_gen(system, first())
    run_gen(system, second())


def reply_callers():
    """The function that called ``on_reply`` for every reply any
    endpoint's observers saw, over :func:`traffic`."""
    system = touch_all(make_system(n_clients=2))
    seen = []

    class Spy(ReplyObserver):
        def on_reply(self, reply, renewal_time):
            seen.append(sys._getframe(1).f_code.co_name)
    for endpoint in system.control_net._endpoints.values():
        endpoint.observers.append(Spy())
    traffic(system)
    return seen


def stamp_readers():
    """The function that read the server's ``reply_stamp`` for every ACK
    it decided, over :func:`traffic`."""
    system = make_system(n_clients=2)
    endpoint = system.server.endpoint
    stamp, readers = endpoint.reply_stamp, []

    def spy(msg):
        readers.append(sys._getframe(1).f_code.co_name)
        return stamp(msg)
    endpoint.reply_stamp = spy
    traffic(system)
    return readers


def test_observers_see_replies_only_in_deliver_reply():
    callers = reply_callers()
    assert len(callers) >= 6
    assert set(callers) == {"_deliver_reply"}


def test_stamps_are_read_only_in_stamped():
    readers = stamp_readers()
    assert len(readers) >= 4
    assert set(readers) == {"_stamped"}
