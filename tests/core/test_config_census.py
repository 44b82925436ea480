"""A flag with no caller fails tier-1.

The ``simplicity-review`` Options rule, made mechanical: every ``bool``
field of ``core/config.py`` doubles the configurations tests and
benchmarks must cover, so each must be set by at least one caller that
is not a test.  A flag only tests set is listed in :data:`TEST_ONLY`
with the reason it stays; an entry that gains a real caller, or names a
field that is gone, fails too, so the list cannot rot.
"""

import ast
import dataclasses
from pathlib import Path

import repro.core.config as config

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

CONFIGS = {name: cls for name, cls in vars(config).items()
           if dataclasses.is_dataclass(cls)
           and cls.__module__ == config.__name__}

TEST_ONLY = {
    "ClusterConfig.push_to_clients":
        "pull-based rerouting (WRONG_OWNER -> CLUSTER_MAP_FETCH -> retry) "
        "is reachable only with pushes off",
}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def fields_set_by_callers():
    """``Config.field`` for every keyword a non-test file passes to a
    config dataclass, directly or as ``shim.build(Config, ...)``."""
    seen = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                target = _name(node.func)
                if target not in CONFIGS and node.args:
                    target = _name(node.args[0])
                if target in CONFIGS:
                    seen.update(f"{target}.{kw.arg}"
                                for kw in node.keywords if kw.arg)
    return seen


def bool_fields():
    return {f"{name}.{f.name}" for name, cls in CONFIGS.items()
            for f in dataclasses.fields(cls) if f.type in (bool, "bool")}


def test_every_bool_option_has_a_caller_outside_tests():
    flags, seen = bool_fields(), fields_set_by_callers()
    assert len(flags) >= 4 and "SystemConfig.n_clients" in seen  # census works
    uncalled = flags - seen
    assert uncalled == set(TEST_ONLY), (
        f"bool options no non-test caller sets: {sorted(uncalled)}; "
        f"make each a constant or derive it, or justify it in TEST_ONLY")


def test_test_only_entries_are_still_needed():
    assert set(TEST_ONLY) <= bool_fields()
    assert not set(TEST_ONLY) & fields_set_by_callers()
    assert all(TEST_ONLY.values())
