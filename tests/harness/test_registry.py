"""The decorator-based experiment registry and its CLI surface."""

import inspect

import pytest

from repro.harness import registry
from repro.harness.__main__ import EXPERIMENTS, main


def test_every_experiment_and_ablation_is_registered():
    names = registry.names()
    for expected in ([f"e{i}" for i in range(1, 12)]
                     + [f"a{i}" for i in range(1, 8)] + ["e-scale"]):
        assert expected in names
    # The CLI dispatch covers the whole registry, including e-scale.
    assert set(EXPERIMENTS) == set(registry.names())


def test_specs_carry_summaries():
    for spec in registry.iter_specs():
        assert spec.summary, f"{spec.name} lacks a summary"


def test_duplicate_registration_raises():
    with pytest.raises(ValueError, match="already registered"):
        registry.register(registry.ExperimentSpec(
            name="e1", fn=lambda: None, summary="dup"))


def test_lookup_unknown_name_lists_choices():
    with pytest.raises(KeyError) as exc:
        registry.lookup("e99")
    assert "e-scale" in str(exc.value)


def test_heavy_experiments_are_excluded_from_all():
    runnable = registry.runnable_by_default()
    assert "e-scale" not in runnable
    assert "e1" in runnable and "a1" in runnable
    assert registry.lookup("e-scale").heavy


def test_list_flag_enumerates_the_registry(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in registry.names():
        assert name in out
    assert "heavy" in out  # e-scale's exclusion from 'all' is visible


def test_cli_requires_an_experiment_or_list():
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["e99"])


def test_clients_flag_has_a_target_in_e_scale():
    params = inspect.signature(registry.lookup("e-scale").fn).parameters
    assert "clients" in params
    assert "seed" in params
