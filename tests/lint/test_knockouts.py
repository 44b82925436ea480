"""Knock-out tests: each check stays silent on the shipped code it
guards and fires when a real defect is put back into it.

If a check regresses, or the code it guards moves out of its reach, the
broken copy stops firing and this file catches it.  Most checks are
lint rules; the request-field defects the schemas cannot see (a handler
that receives a field and ignores it) are caught by the behaviour
checks in ``tests/integration/test_request_fields.py``, so those
knock-outs put the pre-fix handler back into a running system.
"""

from pathlib import Path

import pytest

from repro.lint import lint_source, load_config
from repro.net.message import Close, MsgKind
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system
from tests.integration.test_request_fields import (
    check_close_census, check_data_write_bytes, check_getattr_by_path_and_id,
    check_range_demand_census)

REPO_ROOT = Path(__file__).resolve().parents[2]


# -- CLOSE: client ships file_id, the old server handler ignored it ---------

def _close_ignoring_file_id(s):
    shipped = s.server.intents._intent_exec

    def ignores_file_id(client, body):
        if isinstance(body, Close):
            return ("ack", {})
        return (yield from shipped(client, body))
    s.server.intents._intent_exec = ignores_file_id


def test_close_file_id_dead_write_fires():
    s = make_system(n_clients=1)
    _close_ignoring_file_id(s)
    with pytest.raises(AssertionError):
        check_close_census(s)


def test_close_file_id_fix_is_silent():
    check_close_census(make_system(n_clients=1))


# -- DATA_WRITE: sender ships data_bytes, the old handler hardcoded a size --

def _data_write_assuming_a_block(s):
    server = s.server
    shipped = server._h_data_write

    def hardcodes_the_size(msg):
        run = shipped(msg)
        before = server.data_bytes_served
        result = yield from run
        if server.data_bytes_served != before:
            server.data_bytes_served = before + BLOCK_SIZE
        return result
    server._register(MsgKind.DATA_WRITE, hardcodes_the_size)


def test_data_write_bytes_dead_write_fires():
    s = make_system(n_clients=1)
    _data_write_assuming_a_block(s)
    with pytest.raises(AssertionError):
        check_data_write_bytes(s)


def test_data_write_bytes_fix_is_silent():
    check_data_write_bytes(make_system(n_clients=1))


# -- RANGE_DEMAND: probed by the server, the old client used a lambda stub --

def test_range_demand_lambda_stub_dead_write_fires():
    s = make_system(n_clients=1)
    s.client("c1").endpoint.register(MsgKind.RANGE_DEMAND,
                                     lambda m: ("ack", {}))
    with pytest.raises(AssertionError):
        check_range_demand_census(s)


def test_range_demand_fix_is_silent():
    check_range_demand_census(make_system(n_clients=1))


# -- GETATTR: the old handler hard-read an optional field -------------------

def _getattr_reading_file_id_unprobed(s):
    server = s.server
    shipped = server._h_getattr

    def reads_file_id(msg):
        def run():
            body = msg.payload
            if body.path is not None:
                return shipped(msg)
            fid = int(body.file_id)         # no probe: None is a crash
            ino = server._meta_for_file(fid).inode(fid)
            return ("ack", {"file_id": fid,
                            "attrs": ino.attrs.to_payload()})
            yield
        return run()
    server._register(MsgKind.GETATTR, reads_file_id)


def test_getattr_never_set_read_fires():
    s = make_system(n_clients=1)
    _getattr_reading_file_id_unprobed(s)
    with pytest.raises(AssertionError):
        check_getattr_by_path_and_id(s)


def test_getattr_probe_fix_is_silent():
    check_getattr_by_path_and_id(make_system(n_clients=1))


# -- the shipped tree keeps the handlers the fixes put in -------------------

def test_product_tree_still_reads_close_census_fields():
    """The fixed handlers exist and read what senders ship."""
    intents = (REPO_ROOT / "src/repro/server/intents.py").read_text()
    assert "closes_by_file" in intents
    assert "int(body.file_id)" in intents
    server = (REPO_ROOT / "src/repro/server/node.py").read_text()
    assert "int(body.data_bytes)" in server
    client = (REPO_ROOT / "src/repro/client/lockclient.py").read_text()
    assert "_on_range_demand" in client
    assert "range_demands_seen" in client


# -- RPL013: the four hand-written dispatch sites must not grow back --------

def test_second_dispatch_loop_in_the_transport_fires():
    """Three recovery holes were a reply class skipping one of several
    dispatch sites.  The shipped transport is silent; hand-inlining the
    observer loop back into ``request()`` fires the rule."""
    from repro.lint import lint_source
    path = "src/repro/net/control.py"
    config = load_config(explicit=REPO_ROOT / "pyproject.toml")
    source = (REPO_ROOT / path).read_text()
    assert lint_source(source, path=path, config=config,
                       select=["RPL013"]).violations == []
    call = "                    self._deliver_reply(msg, reply, attempt_times)\n"
    assert call in source
    inlined = source.replace(
        call,
        "                    for observer in self.observers:\n"
        "                        observer.on_reply(reply, None)\n", 1)
    result = lint_source(inlined, path=path, config=config,
                         select=["RPL013"])
    assert [v.code for v in result.violations] == ["RPL013"]
    assert "on_reply" in result.violations[0].message


# -- the node layers: every rule that guarded the node modules still has
# -- its subject in the module the code moved to ------------------------------

_LAYER_KNOCKOUTS = [
    # (rule, shipped file, text to break, what it becomes)
    ("RPL002", "src/repro/server/lockservice.py",
     "MsgKind.RANGE_DEMAND, RangeDemand(obj)",
     "MsgKind.KEEPALIVE, RangeDemand(obj)"),
    ("RPL006", "src/repro/server/lockservice.py",
     "server._register(MsgKind.LOCK_DOWNGRADE, self._h_lock_downgrade)",
     "pass"),
    ("RPL006", "src/repro/server/intents.py",
     "server._register(MsgKind.LOCK_BATCH, self._h_lock_batch)", "pass"),
    ("RPL006", "src/repro/client/lockclient.py",
     "endpoint.register(MsgKind.RANGE_DEMAND, self._on_range_demand)",
     "pass"),
    ("RPL006", "src/repro/netcache/node.py",
     "self.endpoint.register(MsgKind.CACHE_INVALIDATE, self._h_invalidate)",
     "pass"),
    # Finishing the body inline instead of handing it to the responder.
    ("RPL009", "src/repro/server/node.py",
     "return self._create(body.path, int(body.size))",
     "return next(self._create(body.path, int(body.size)))"),
    # Running the setattr body directly instead of through the barrier.
    ("RPL011", "src/repro/server/node.py",
     "return (yield from self.barrier.mutate(apply, file_ids=(file_id,)))",
     "return apply()"),
    ("RPL013", "src/repro/client/node.py",
     "raise NackError(req, Nack(  # repro-lint: ignore[RPL013]",
     "raise NackError(req, Nack("),
    # Renewing the lease at an instant the server put in its reply.
    ("RPL008", "src/repro/lease/agent.py",
     "lease.renew(renewal_time)",
     "lease.renew(reply.payload.get(\"renewal\", renewal_time))"),
    # ... or in its envelope stamp, which is as remote as the payload.
    ("RPL008", "src/repro/lease/agent.py",
     "lease.renew(renewal_time)", "lease.renew(reply.stamp[0])"),
]


@pytest.mark.parametrize("code,path,old,new", _LAYER_KNOCKOUTS)
def test_rule_still_fires_in_the_layer_its_subject_moved_to(code, path,
                                                            old, new):
    config = load_config(explicit=REPO_ROOT / "pyproject.toml")
    source = (REPO_ROOT / path).read_text()
    assert old in source
    assert lint_source(source, path=path, config=config,
                       select=[code]).violations == []
    broken = lint_source(source.replace(old, new), path=path, config=config,
                         select=[code])
    assert {v.code for v in broken.violations} == {code}
