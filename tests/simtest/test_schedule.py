"""Schedule data model and the seeded generator."""

from __future__ import annotations

import math

import pytest

from repro.fault.injector import STEP_KINDS, ScheduleError
from repro.simtest.schedule import (SCHEDULE_SCHEMA, FaultStep, Schedule,
                                    generate_schedule)


# -- FaultStep ------------------------------------------------------------

def test_step_rejects_unknown_kind():
    with pytest.raises(ScheduleError, match="unknown fault step kind"):
        FaultStep(1.0, "melt_down")


def test_step_rejects_negative_and_nan_times():
    with pytest.raises(ScheduleError, match="non-negative"):
        FaultStep(-1.0, "heal_control")
    with pytest.raises(ScheduleError, match="non-negative"):
        FaultStep(math.nan, "heal_control")


def test_step_copies_params():
    params = {"client": "c1"}
    step = FaultStep(1.0, "isolate_client", params)
    params["client"] = "c2"
    assert step.params["client"] == "c1"


def test_step_round_trips():
    step = FaultStep(3.5, "partition_san",
                     {"initiator": "c2", "device": "disk1"})
    assert FaultStep.from_dict(step.to_dict()) == step


# -- Schedule -------------------------------------------------------------

def test_schedule_sorts_steps_by_time():
    sch = Schedule(seed=0, horizon=10.0, steps=(
        FaultStep(7.0, "heal_control"),
        FaultStep(2.0, "isolate_client", {"client": "c1"}),
    ))
    assert [s.time for s in sch.steps] == [2.0, 7.0]


def test_schedule_rejects_step_beyond_horizon():
    with pytest.raises(ScheduleError, match="beyond"):
        Schedule(seed=0, horizon=5.0,
                 steps=(FaultStep(6.0, "heal_control"),))


def test_schedule_round_trips():
    sch = generate_schedule(11, 5, break_mode="skip_flush")
    doc = sch.to_dict()
    assert doc["schema"] == SCHEDULE_SCHEMA
    assert Schedule.from_dict(doc) == sch


def test_schedule_from_dict_rejects_wrong_schema():
    doc = generate_schedule(11, 2).to_dict()
    doc["schema"] = "something/else"
    with pytest.raises(ScheduleError, match="schema"):
        Schedule.from_dict(doc)


def test_with_steps_keeps_environment():
    sch = generate_schedule(4, 6)
    cut = sch.with_steps(sch.steps[:2])
    assert (cut.seed, cut.horizon, cut.n_clients, cut.tau, cut.epsilon) == \
        (sch.seed, sch.horizon, sch.n_clients, sch.tau, sch.epsilon)
    assert len(cut.steps) == 2


def test_system_config_plumbs_environment():
    sch = generate_schedule(4, 6)
    cfg = sch.system_config()
    assert cfg.seed == sch.seed
    assert cfg.n_clients == sch.n_clients
    assert cfg.lease.tau == sch.tau
    assert cfg.lease.epsilon == sch.epsilon
    assert cfg.record_trace


def test_from_dict_ignores_legacy_intents_key():
    # Serialized schedules (failure artifacts) written while the
    # protocol had a split-op variant carry an "intents" key, true or
    # false; older ones carry none.  All load to the same schedule.
    sch = generate_schedule(4, 6)
    doc = sch.to_dict()
    assert "intents" not in doc
    for legacy in ({}, {"intents": False}, {"intents": True}):
        assert Schedule.from_dict({**doc, **legacy}) == sch


# -- generator ------------------------------------------------------------

def test_generate_is_deterministic():
    assert generate_schedule(9, 10) == generate_schedule(9, 10)


def test_generate_zero_steps():
    assert generate_schedule(0, 0).steps == ()


def test_generate_rejects_negative_steps():
    with pytest.raises(ScheduleError, match=">= 0"):
        generate_schedule(0, -1)


def test_generated_steps_are_well_formed():
    for seed in range(6):
        sch = generate_schedule(seed, 8)
        assert 2 <= sch.n_clients <= 3
        assert 0.0 <= sch.epsilon <= 0.1
        for step in sch.steps:
            assert step.kind in STEP_KINDS
            assert 0.0 <= step.time <= sch.horizon


def test_generated_onsets_are_paired_with_recovery():
    sch = generate_schedule(3, 12)
    kinds = [s.kind for s in sch.steps]
    assert kinds.count("isolate_client") == kinds.count("heal_control")
    assert kinds.count("partition_san") == kinds.count("heal_san")
    assert kinds.count("loss_burst") == kinds.count("end_loss_burst")
