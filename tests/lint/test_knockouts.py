"""Knock-out tests: each check stays silent on the shipped code it
guards and fires when a real defect is put back into it.

If a check regresses, or the code it guards moves out of its reach, the
broken copy stops firing and this file catches it.  Some checks are
lint rules.  The request-field defects the schemas cannot see (a handler
that receives a field and ignores it) are caught by the behaviour
checks in ``tests/integration/test_request_fields.py``, so those
knock-outs put the pre-fix handler back into a running system.  Three
former lint rules are now checks the code runs (DESIGN.md §11, "Kept by
construction"): their knock-outs are compiled back into the shipped
module and must fail the build, the store or a behaviour test.  So is
the knock-out of deleted RPL009, a handler finishing its body inline,
which fails the request it serves.
"""

import sys
from pathlib import Path

import pytest

from repro.client.lockclient import LockClient
from repro.core.config import NetCacheConfig
from repro.lint import lint_source
from repro.metadata.store import ClaimError
from repro.net.control import Endpoint
from repro.net.message import Close, KIND_GROUPS, MsgKind, partition_faults
from repro.netcache.node import MetadataCacheNode
from repro.protocols.frangipani import FrangipaniAuthority
from repro.protocols.vleases import VLeaseAuthority
from repro.server.intents import IntentExecutor
from repro.server.node import StorageTankServer
from repro.server.recovery import RecoveryManager
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen
from tests.integration.test_request_fields import (
    check_close_census, check_data_write_bytes, check_getattr_by_path_and_id,
    check_range_demand_census)
from tests.net.test_reply_path import reply_builds, reply_callers, stamp_readers

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


# -- kept by construction: RPL006, RPL011 and RPL013 became checks the ---
# -- code runs; each old knock-out, compiled back in, fails one of them -------

def _knock_out(monkeypatch, cls, method, old, new):
    """Replace ``cls.method`` by its shipped source with ``old`` changed
    to ``new``: the knock-out, compiled in the module it lives in."""
    module = sys.modules[cls.__module__]
    source = Path(module.__file__).read_text()
    assert source.count(old) == 1, old
    namespace = {"__name__": module.__name__, "__file__": module.__file__}
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    fn = getattr(namespace[cls.__name__], method)
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        if name == "__class__":         # what ``super()`` binds to
            cell.cell_contents = cls
    monkeypatch.setattr(cls, method, fn)


def _build(**overrides):
    """Build a system and touch one client, so it is built too."""
    system = make_system(**overrides)
    system.client(system.pool.name_of(0))
    return system


# (class, method, registration deleted, build overrides, kind it named)
_UNREGISTERED = [
    (RecoveryManager, "__init__",
     "server.endpoint.register(MsgKind.LOCK_REASSERT, self._h_reassert)", {},
     MsgKind.LOCK_REASSERT),
    (IntentExecutor, "__init__",
     "server._register(MsgKind.LOCK_BATCH, self._h_lock_batch)", {},
     MsgKind.LOCK_BATCH),
    (LockClient, "__init__",
     "endpoint.register(MsgKind.RANGE_DEMAND, self._on_range_demand)",
     {}, MsgKind.RANGE_DEMAND),
    (MetadataCacheNode, "__init__",
     "self.endpoint.register(MsgKind.CACHE_INVALIDATE, self._h_invalidate)",
     {"netcache": NetCacheConfig(n_nodes=2)}, MsgKind.CACHE_INVALIDATE),
    # Groups no lint rule ever checked: each baseline served half of the
    # one group it shared, so no module declared it.
    (VLeaseAuthority, "__init__",
     "endpoint.register(MsgKind.LEASE_RENEW, self._h_renew)",
     {"protocol": "vleases"}, MsgKind.LEASE_RENEW),
    (FrangipaniAuthority, "__init__",
     "endpoint.register(MsgKind.HEARTBEAT, self._h_heartbeat)",
     {"protocol": "frangipani"}, MsgKind.HEARTBEAT),
    (StorageTankServer, "attach_cluster",
     "self.endpoint.register(MsgKind.CLUSTER_RELEASE, role.h_release)",
     {"n_servers": 2}, MsgKind.CLUSTER_RELEASE),
]


@pytest.mark.parametrize("cls,method,registration,overrides,kind",
                         _UNREGISTERED,
                         ids=[row[4] for row in _UNREGISTERED])
def test_a_node_missing_a_served_handler_is_never_built(
        monkeypatch, cls, method, registration, overrides, kind):
    _build(**overrides)
    _knock_out(monkeypatch, cls, method, registration, "pass")
    with pytest.raises(TypeError, match=f"no handler for {kind}"):
        _build(**overrides)


def test_a_kind_outside_the_partition_fails_the_import():
    """The partition half of RPL006: a kind in no group (or in two) is
    refused where the vocabulary is declared."""
    groups = dict(KIND_GROUPS)
    assert partition_faults(groups) == []
    groups["recovery"] = ()
    groups["intent"] += (MsgKind.OPEN,)
    faults = " | ".join(partition_faults(groups))
    assert "'lock.reassert' is in 0 groups" in faults
    assert "'fs.open' is in 2 groups" in faults
    path = REPO_ROOT / "src/repro/net/message.py"
    source = path.read_text()
    old = '"recovery": (MsgKind.LOCK_REASSERT,),'
    assert source.count(old) == 1
    with pytest.raises(AssertionError, match="lock.reassert"):
        exec(compile(source.replace(old, '"recovery": (),'), str(path),
                     "exec"), {"__name__": "repro.net.message"})


def test_the_setattr_body_run_outside_the_barrier_fails(monkeypatch):
    """RPL011's row: the setattr body run directly, not handed to
    ``CacheBarrier.mutate``, has no live claim for the store."""
    system = make_system(n_clients=1)
    fid = run_gen(system, system.client("c1").create("/f"))
    _knock_out(monkeypatch, StorageTankServer, "_setattr",
               "return (yield from self.barrier.mutate(apply, "
               "file_ids=(file_id,)))",
               "return apply(None)")
    with pytest.raises(ClaimError):
        system.server._setattr(fid, BLOCK_SIZE, None)
    assert system.server.metadata.inode(fid).attrs.size == 0


def test_a_handler_finishing_its_body_inline_fails_the_create(monkeypatch):
    """RPL009's row: ``_h_create`` runs the body itself instead of
    returning it to the transport, which runs a generator handler to its
    first wait inside the delivery."""
    _knock_out(monkeypatch, StorageTankServer, "_h_create",
               "return self._create(body.path, int(body.size))",
               "return next(self._create(body.path, int(body.size)))")
    system = make_system(n_clients=1)
    with pytest.raises(StopIteration):
        run_gen(system, system.client("c1").create("/f"))


def test_a_hand_built_reply_outside_the_transport_fires():
    """RPL013's row: the client's batch refusal built as a raw ``Nack``
    again, as it was before ``NackError.refused_in_batch``."""
    path = REPO_ROOT / "src/repro/client/node.py"
    source = path.read_text()
    shipped = ("raise NackError.refused_in_batch(self.name, srv, op,\n"
               "                                             "
               "res.get(\"error\", \"\"))")
    assert source.count(shipped) == 1 and reply_builds(source) == []
    hand_built = ("raise NackError(None, Nack(src=srv, dst=self.name, "
                  "reply_to=0))")
    assert len(reply_builds(source.replace(shipped, hand_built))) == 1


def test_second_dispatch_loop_in_the_transport_fires(monkeypatch):
    """Three recovery holes were a reply class skipping one of several
    dispatch sites.  Hand-inlining the observer loop back into
    ``request()`` (NACKs still raising) shows replies to observers from
    a second site."""
    call = "                    self._deliver_reply(msg, reply, attempt_times)\n"
    _knock_out(monkeypatch, Endpoint, "request", call,
               "                    for observer in self.observers:\n"
               "                        observer.on_reply(reply, None)\n"
               "                    if reply.kind == _NACK:\n"
               "                        raise NackError(msg, reply)\n")
    assert "request" in reply_callers()


def test_a_second_stamp_reader_fires(monkeypatch):
    _knock_out(monkeypatch, Endpoint, "_finish",
               'stamp = self._stamped(msg) if decision == "ack" else None',
               'stamp = self.reply_stamp and self.reply_stamp(msg) '
               'if decision == "ack" else None')
    assert "_finish" in stamp_readers()


# -- the node layers: every rule that guarded the node modules still has
# -- its subject in the module the code moved to ------------------------------

_LAYER_KNOCKOUTS = [
    # (rule, shipped file, text to break, what it becomes)
    ("RPL002", "src/repro/server/lockservice.py",
     "MsgKind.RANGE_DEMAND, RangeDemand(obj)",
     "MsgKind.KEEPALIVE, RangeDemand(obj)"),
    # A server helper that blocks the process on the wall clock: every
    # LOOKUP and UNLINK handler reaches it inside the delivery.
    ("RPL001", "src/repro/server/node.py",
     "        \"\"\"The store serving a path (home-owner's store under a "
     "cluster).\"\"\"\n",
     "        \"\"\"The store serving a path (home-owner's store under a "
     "cluster).\"\"\"\n        import time\n        time.sleep(0)\n"),
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
    source = (REPO_ROOT / path).read_text()
    assert old in source
    assert lint_source(source, path=path, select=[code]).violations == []
    broken = lint_source(source.replace(old, new), path=path, select=[code])
    assert {v.code for v in broken.violations} == {code}
