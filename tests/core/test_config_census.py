"""A flag with no caller fails tier-1.

The ``simplicity-review`` Options rule, made mechanical: every ``bool``
field of a config dataclass doubles the configurations tests and
benchmarks must cover, so each must be set by at least one caller that
is not a test.  The census reads every ``@dataclass`` named ``*Config``
under ``src/repro`` — the node modules define theirs (``ServerConfig``,
``ClientConfig``) beside the node, not in ``core/config.py`` — and
counts two ways of setting a field: a keyword passed to the class
(directly or as ``shim.build(Config, ...)``), and an assignment on a
live node's config object (``system.server.config.demand_timeout = …``,
as ablation A3 does).  A ``hasattr``-guarded poke through a local name
(``simtest/runner.py``) is written to survive the field's deletion and
is not a caller that needs it.

A flag only tests set is listed in :data:`TEST_ONLY` with the reason it
stays; an entry that gains a real caller, or names a field that is
gone, fails too, so the list cannot rot.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")


def _config_classes():
    """Every ``@dataclass`` named ``*Config`` under ``src/repro``."""
    found = {}
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                module = ".".join(path.relative_to(src).with_suffix("").parts)
                cls = getattr(importlib.import_module(module), node.name)
                if dataclasses.is_dataclass(cls):
                    found[node.name] = cls
    return found


CONFIGS = _config_classes()

TEST_ONLY = {
    "ClusterConfig.push_to_clients":
        "pull-based rerouting (WRONG_OWNER -> CLUSTER_MAP_FETCH -> retry) "
        "is reachable only with pushes off",
    "ServerConfig.demand_chain":
        "retired by the lock-queue liveness item (ROADMAP); until then "
        "only the fuzzer's guarded poke arms it, for adversarial schedules",
}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def fields_set_by_callers():
    """``Config.field`` for every field a non-test file sets: a keyword
    to a config dataclass, or ``<node>.config.<field> = ...``."""
    owners = {}
    for name, cls in CONFIGS.items():
        for f in dataclasses.fields(cls):
            owners.setdefault(f.name, []).append(name)
    seen = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    target = _name(node.func)
                    if target not in CONFIGS and node.args:
                        target = _name(node.args[0])
                    if target in CONFIGS:
                        seen.update(f"{target}.{kw.arg}"
                                    for kw in node.keywords if kw.arg)
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = getattr(node, "targets", None) or [node.target]
                    for t in targets:
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Attribute)
                                and t.value.attr == "config"):
                            seen.update(f"{cls}.{t.attr}"
                                        for cls in owners.get(t.attr, ()))
    return seen


def bool_fields():
    return {f"{name}.{f.name}" for name, cls in CONFIGS.items()
            for f in dataclasses.fields(cls) if f.type in (bool, "bool")}


def test_census_reads_every_config_class():
    assert {"SystemConfig", "ServerConfig", "ClientConfig"} <= set(CONFIGS)
    seen = fields_set_by_callers()
    assert "SystemConfig.n_clients" in seen          # keyword callers
    assert "ServerConfig.demand_timeout" in seen     # A3's live assignment


def test_every_bool_option_has_a_caller_outside_tests():
    flags, seen = bool_fields(), fields_set_by_callers()
    assert len(flags) >= 6
    uncalled = flags - seen
    assert uncalled == set(TEST_ONLY), (
        f"bool options no non-test caller sets: {sorted(uncalled)}; "
        f"make each a constant or derive it, or justify it in TEST_ONLY")


def test_test_only_entries_are_still_needed():
    assert set(TEST_ONLY) <= bool_fields()
    assert not set(TEST_ONLY) & fields_set_by_callers()
    assert all(TEST_ONLY.values())
