"""Firing/clean fixture pairs for every invariant oracle.

Mirrors the ``tests/lint/`` convention: each oracle gets at least one
hand-built run where it must fire and one where it must stay silent,
including its documented exemptions (crash, SAN cut, slow client,
in-flight op, demand compliance in progress).  Trace-driven oracles are
fed synthesized records; the live lock-compatibility oracle inspects
real client state set up through the actual protocol.
"""

from __future__ import annotations

from repro.locks.modes import LockMode
from repro.net.message import MsgKind
from repro.simtest.oracles import (
    ExpectedFailureFlushOracle,
    LockCompatibilityOracle,
    NackTimedOutOracle,
    NoSilentLossOracle,
    PassiveServerOracle,
    Theorem31Oracle,
    default_oracles,
)
from repro.storage import BLOCK_SIZE

from tests.conftest import make_system, run_gen


def _two_reader_system():
    """Both clients hold a real SHARED lock on the same file."""
    s = make_system()
    c1, c2 = s.client("c1"), s.client("c2")

    def setup():
        yield from c1.create("/f", size=BLOCK_SIZE)
        fd1 = yield from c1.open_file("/f", "r")
        yield from c2.open_file("/f", "r")
        return c1.fds.get(fd1).file_id
    fid = run_gen(s, setup())
    return s, fid


# -- lock-compatibility ---------------------------------------------------

def test_lock_compatibility_fires_on_conflicting_live_locks():
    s, fid = _two_reader_system()
    # Corrupt c2's table: an EXCLUSIVE entry conflicting with c1's SHARED.
    s.client("c2").locks.note_granted(fid, LockMode.EXCLUSIVE)
    hits = LockCompatibilityOracle().check_live(s)
    assert len(hits) == 1
    assert hits[0].detail["obj"] == fid


def test_lock_compatibility_clean_on_shared_readers():
    s, _fid = _two_reader_system()
    assert LockCompatibilityOracle().check_live(s) == []


def test_lock_compatibility_exempts_revocation_in_progress():
    s, fid = _two_reader_system()
    c2 = s.client("c2")
    c2.locks.note_granted(fid, LockMode.EXCLUSIVE)
    # Mid-compliance the table entry is bookkeeping lag, not a usable lock.
    c2.lockclient._revoking.add(fid)
    assert LockCompatibilityOracle().check_live(s) == []


# -- no-silent-loss -------------------------------------------------------

def test_no_silent_loss_fires_on_vanished_ack():
    s = make_system()
    s.trace.emit(5.0, "app.write.ack", "c1", tag="t-lost",
                 phys=[("disk1", 0)])
    hits = NoSilentLossOracle().check_final(s)
    assert len(hits) == 1
    assert "silently lost" in hits[0].message


def test_no_silent_loss_exempts_crashed_writer():
    s = make_system()
    s.trace.emit(5.0, "app.write.ack", "c1", tag="t-lost",
                 phys=[("disk1", 0)])
    s.trace.emit(6.0, "fault.inject", "injector", label="crash:c1")
    assert NoSilentLossOracle().check_final(s) == []


def test_no_silent_loss_exempts_reported_error():
    s = make_system()
    s.trace.emit(5.0, "app.write.ack", "c1", tag="t-lost",
                 phys=[("disk1", 0)])
    s.trace.emit(7.0, "app.error", "c1", tag="t-lost")
    assert NoSilentLossOracle().check_final(s) == []


def test_no_silent_loss_clean_on_empty_run():
    assert NoSilentLossOracle().check_final(make_system()) == []


# -- expected-failure-flush -----------------------------------------------

def _lease_lost(s, time=5.0, dropped=2, in_flight=0):
    s.trace.emit(time, "client.lease_lost", "c1", dirty_dropped=dropped,
                 in_flight=in_flight, server="server")


def test_flush_oracle_fires_on_unexcused_dirty_drop():
    s = make_system()
    _lease_lost(s)
    hits = ExpectedFailureFlushOracle().check_final(s)
    assert len(hits) == 1
    assert hits[0].detail["dirty_dropped"] == 2


def test_flush_oracle_clean_when_nothing_dropped():
    s = make_system()
    _lease_lost(s, dropped=0)
    assert ExpectedFailureFlushOracle().check_final(s) == []


def test_flush_oracle_exempts_in_flight_op():
    s = make_system()
    _lease_lost(s, in_flight=1)
    assert ExpectedFailureFlushOracle().check_final(s) == []


def test_flush_oracle_exempts_crashed_client():
    s = make_system()
    s.trace.emit(4.0, "fault.inject", "injector", label="crash:c1")
    _lease_lost(s)
    assert ExpectedFailureFlushOracle().check_final(s) == []


def test_flush_oracle_fires_again_after_restart():
    s = make_system()
    s.trace.emit(3.0, "fault.inject", "injector", label="crash:c1")
    s.trace.emit(4.0, "fault.inject", "injector", label="restart:c1")
    _lease_lost(s)
    assert len(ExpectedFailureFlushOracle().check_final(s)) == 1


def test_flush_oracle_exempts_active_san_cut():
    s = make_system()
    s.trace.emit(4.0, "fault.inject", "injector", label="san_cut:c1-disk1")
    _lease_lost(s)
    assert ExpectedFailureFlushOracle().check_final(s) == []


def test_flush_oracle_fires_after_san_heal():
    s = make_system()
    s.trace.emit(3.0, "fault.inject", "injector", label="san_cut:c1-disk1")
    s.trace.emit(4.0, "fault.inject", "injector", label="heal_san")
    _lease_lost(s)
    assert len(ExpectedFailureFlushOracle().check_final(s)) == 1


def test_flush_oracle_exempts_slow_client():
    s = make_system(slow_clients=("c1",))
    _lease_lost(s)
    assert ExpectedFailureFlushOracle().check_final(s) == []


# -- passive-server -------------------------------------------------------

def test_passive_server_fires_on_server_lease_message():
    s = make_system()
    s.trace.emit(2.0, "msg.send", "server", msg_kind=MsgKind.KEEPALIVE,
                 dst="c1")
    hits = PassiveServerOracle().check_final(s)
    assert len(hits) == 1
    assert "lease message" in hits[0].message


def test_passive_server_fires_on_nack_outside_suspect_window():
    s = make_system()
    s.trace.emit(3.0, "lease.server_nack", "server", client="c1",
                 msg_kind=MsgKind.LOCK_ACQUIRE)
    hits = PassiveServerOracle().check_final(s)
    assert len(hits) == 1
    assert "outside any" in hits[0].message


def test_passive_server_clean_on_nack_inside_suspect_window():
    s = make_system()
    s.trace.emit(2.0, "lease.suspect", "server", client="c1")
    s.trace.emit(3.0, "lease.server_nack", "server", client="c1",
                 msg_kind=MsgKind.LOCK_ACQUIRE)
    s.trace.emit(8.0, "lease.steal", "server", client="c1")
    assert PassiveServerOracle().check_final(s) == []


def test_passive_server_fires_on_lease_charge_without_suspects():
    s = make_system()
    s.server.authority.overhead_snapshot = lambda: {"lease_msgs_sent": 3.0}
    hits = PassiveServerOracle().check_final(s)
    assert len(hits) == 1
    assert "without ever suspecting" in hits[0].message


def test_passive_server_allows_lease_charge_with_suspects():
    s = make_system()
    s.server.authority.overhead_snapshot = lambda: {"lease_msgs_sent": 3.0}
    s.trace.emit(2.0, "lease.suspect", "server", client="c1")
    s.trace.emit(8.0, "lease.steal", "server", client="c1")
    assert PassiveServerOracle().check_final(s) == []


# -- nack-timed-out -------------------------------------------------------

def _suspect_window_with_request(s, *, nacked: bool,
                                 msg_kind=MsgKind.LOCK_ACQUIRE):
    s.trace.emit(2.0, "lease.suspect", "server", client="c1")
    s.trace.emit(5.0, "msg.recv", "server", src="c1", msg_kind=msg_kind)
    if nacked:
        s.trace.emit(5.0, "lease.server_nack", "server", client="c1",
                     msg_kind=msg_kind)
    s.trace.emit(8.0, "lease.steal", "server", client="c1")


def test_nack_oracle_fires_on_unanswered_suspect_request():
    s = make_system()
    _suspect_window_with_request(s, nacked=False)
    hits = NackTimedOutOracle().check_final(s)
    assert len(hits) == 1
    assert "was not NACKed" in hits[0].message


def test_nack_oracle_clean_when_request_nacked():
    s = make_system()
    _suspect_window_with_request(s, nacked=True)
    assert NackTimedOutOracle().check_final(s) == []


def test_nack_oracle_exempts_reply_frames():
    s = make_system()
    _suspect_window_with_request(s, nacked=False, msg_kind=MsgKind.ACK)
    assert NackTimedOutOracle().check_final(s) == []


def test_nack_oracle_ignores_window_boundary():
    s = make_system()
    s.trace.emit(2.0, "lease.suspect", "server", client="c1")
    # Admitted exactly at the boundary: not strictly inside the window.
    s.trace.emit(2.0, "msg.recv", "server", src="c1",
                 msg_kind=MsgKind.LOCK_ACQUIRE)
    s.trace.emit(8.0, "lease.steal", "server", client="c1")
    assert NackTimedOutOracle().check_final(s) == []


def test_nack_oracle_skipped_under_ablation():
    s = make_system()
    _suspect_window_with_request(s, nacked=False)
    s.server.authority.nack_suspects = False
    assert NackTimedOutOracle().check_final(s) == []


# -- theorem-3.1 ----------------------------------------------------------

def _renewed_lease_expiry(s, client="c1", renewed_at=5.0):
    """Emit a renewal and return the lease's global expiry instant."""
    clk = s.clocks.clocks[client]
    contract = s.config.lease.contract()
    start_local = clk.local_time(renewed_at)
    s.trace.emit(renewed_at, "lease.renewed", client, server="server",
                 start_local=start_local)
    return clk.global_time(contract.client_expiry_local(start_local))


def test_theorem_oracle_fires_on_premature_steal():
    s = make_system()
    expiry = _renewed_lease_expiry(s)
    s.trace.emit(expiry - 1.0, "lease.steal", "server", client="c1")
    hits = Theorem31Oracle().check_final(s)
    assert len(hits) == 1
    assert "before its lease" in hits[0].message


def test_theorem_oracle_clean_on_post_expiry_steal():
    s = make_system()
    expiry = _renewed_lease_expiry(s)
    s.trace.emit(expiry + 1.0, "lease.steal", "server", client="c1")
    assert Theorem31Oracle().check_final(s) == []


def test_theorem_oracle_uses_last_renewal():
    s = make_system()
    _renewed_lease_expiry(s, renewed_at=5.0)
    expiry2 = _renewed_lease_expiry(s, renewed_at=9.0)
    # Later than the first lease's expiry but inside the renewed one.
    s.trace.emit(expiry2 - 1.0, "lease.steal", "server", client="c1")
    assert len(Theorem31Oracle().check_final(s)) == 1


def test_theorem_oracle_exempts_never_leased_client():
    s = make_system()
    s.trace.emit(4.0, "lease.steal", "server", client="c1")
    assert Theorem31Oracle().check_final(s) == []


def test_theorem_oracle_exempts_slow_client():
    s = make_system(slow_clients=("c1",))
    expiry = _renewed_lease_expiry(s)
    s.trace.emit(expiry - 1.0, "lease.steal", "server", client="c1")
    assert Theorem31Oracle().check_final(s) == []


# -- library --------------------------------------------------------------

def test_default_oracles_one_of_each():
    names = [o.name for o in default_oracles()]
    assert names == ["lock-compatibility", "no-silent-loss",
                     "expected-failure-flush", "passive-server",
                     "nack-timed-out", "theorem-3.1",
                     "cache-serves-no-stale-entry",
                     "fenced-client-serves-no-stale-data",
                     "capability-checked-san-io",
                     "byzantine-containment"]
    assert all(o.claim for o in default_oracles())
