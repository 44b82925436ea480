"""Phase enumeration semantics."""

from repro.lease import LeasePhase


def test_service_gating():
    assert LeasePhase.VALID.serves_new_requests
    assert LeasePhase.RENEWAL.serves_new_requests
    assert not LeasePhase.SUSPECT.serves_new_requests
    assert not LeasePhase.FLUSH.serves_new_requests
    assert not LeasePhase.EXPIRED.serves_new_requests


def test_cache_usable_until_expiry():
    for p in (LeasePhase.VALID, LeasePhase.RENEWAL, LeasePhase.SUSPECT,
              LeasePhase.FLUSH):
        assert p.cache_usable
    assert not LeasePhase.EXPIRED.cache_usable


def test_ordering():
    assert LeasePhase.VALID < LeasePhase.RENEWAL < LeasePhase.SUSPECT \
        < LeasePhase.FLUSH < LeasePhase.EXPIRED
