"""Rate-skewed clocks and the ε ensemble bound."""

import pytest

from repro.sim import ClockEnsemble, LocalClock, RandomStreams


def test_identity_clock_roundtrip():
    c = LocalClock("n", rate=1.0, offset=0.0)
    assert c.local_time(10.0) == 10.0
    assert c.global_time(10.0) == 10.0


def test_affine_mapping():
    c = LocalClock("n", rate=2.0, offset=5.0)
    assert c.local_time(3.0) == 11.0
    assert c.global_time(11.0) == 3.0


def test_interval_conversion_slow_clock():
    # rate 0.5: a 10-local-second timer takes 20 global seconds.
    c = LocalClock("n", rate=0.5)
    assert c.to_global_interval(10.0) == 20.0
    assert c.to_local_interval(20.0) == 10.0


def test_negative_intervals_rejected():
    c = LocalClock("n")
    with pytest.raises(ValueError):
        c.to_global_interval(-1.0)
    with pytest.raises(ValueError):
        c.to_local_interval(-1.0)


def test_nonpositive_rate_rejected():
    with pytest.raises(ValueError):
        LocalClock("n", rate=0.0)
    with pytest.raises(ValueError):
        LocalClock("n", rate=-1.0)


def test_ratio_bound_symmetric():
    a = LocalClock("a", rate=1.0)
    b = LocalClock("b", rate=1.1)
    assert a.ratio_bound_with(b) == pytest.approx(0.1)
    assert b.ratio_bound_with(a) == pytest.approx(0.1)


def test_ensemble_respects_epsilon():
    ens = ClockEnsemble(0.03, RandomStreams(7))
    for i in range(50):
        ens.create(f"n{i}")
    assert ens.worst_pair_epsilon() <= 0.03 + 1e-12
    assert ens.verify_bound()


def test_ensemble_zero_epsilon_gives_unit_rates():
    ens = ClockEnsemble(0.0, RandomStreams(7))
    for i in range(5):
        clock = ens.create(f"n{i}")
        assert clock.rate == 1.0


def test_ensemble_duplicate_name_rejected():
    ens = ClockEnsemble(0.05, RandomStreams(7))
    ens.create("a")
    with pytest.raises(ValueError):
        ens.create("a")


def test_violating_clock_breaks_bound():
    ens = ClockEnsemble(0.05, RandomStreams(7))
    ens.create("good1")
    ens.create("good2")
    slow = ens.create("slow", violates_bound=True)
    assert slow.rate < 1.0 / (1.0 + 0.05)
    assert ens.worst_pair_epsilon() > 0.05


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        ClockEnsemble(-0.1)


def test_explicit_rate_and_offset():
    ens = ClockEnsemble(0.05, RandomStreams(7))
    c = ens.create("fixed", rate=1.02, offset=3.0)
    assert c.rate == 1.02
    assert c.offset == 3.0


def test_offsets_do_not_affect_intervals():
    a = LocalClock("a", rate=1.0, offset=500.0)
    assert a.to_global_interval(7.0) == 7.0


def test_clocks_registry_snapshot():
    ens = ClockEnsemble(0.05, RandomStreams(7))
    ens.create("x")
    ens.create("y")
    assert set(ens.clocks) == {"x", "y"}


def _draws(ens):
    return {n: (c.rate, c.offset) for n, c in ens.clocks.items()}


def test_each_clock_is_drawn_from_its_own_name():
    """Creation order decides nothing: the coordinator and a cache node
    first, the clients in reverse, or the other way round."""
    names = [f"c{i}" for i in range(1, 9)]
    first = ClockEnsemble(0.05, RandomStreams(7))
    for name in [*names, "coord", "mcache1"]:
        first.create(name)
    second = ClockEnsemble(0.05, RandomStreams(7))
    for name in ["mcache1", "coord", *reversed(names)]:
        second.create(name)
    assert _draws(first) == _draws(second)
    other_seed = ClockEnsemble(0.05, RandomStreams(8))
    other_seed.create("c1")
    assert _draws(other_seed)["c1"] != _draws(first)["c1"]


def test_keyed_rates_stay_inside_epsilon():
    eps = 0.05
    ens = ClockEnsemble(eps, RandomStreams(3))
    clocks = [ens.create(f"c{i}") for i in range(1, 1001)]
    lo, hi = 1.0 / (1.0 + eps) ** 0.5, (1.0 + eps) ** 0.5
    assert all(lo <= c.rate <= hi for c in clocks)
    assert all(-1000.0 <= c.offset <= 1000.0 for c in clocks)
    assert len({c.rate for c in clocks}) == 1000
    assert ens.verify_bound()
    assert ens.worst_pair_epsilon() <= eps + 1e-12


def test_keyed_slow_clients_draw_below_the_bound():
    eps = 0.05
    ens = ClockEnsemble(eps, RandomStreams(3))
    lo = 1.0 / (1.0 + eps) ** 0.5
    slow = [ens.create(f"c{i}", violates_bound=True) for i in range(1, 101)]
    assert all(lo / 4.0 <= c.rate <= lo / 2.0 for c in slow)


def test_no_clock_reads_a_shared_stream():
    streams = RandomStreams(7)
    ens = ClockEnsemble(0.05, streams)
    for i in range(10):
        ens.create(f"n{i}")
    assert streams._streams == {}
