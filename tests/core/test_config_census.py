"""An option with no caller fails tier-1.

The ``simplicity-review`` Options rule, made mechanical: every field of
a config dataclass, and every default-valued ``__init__`` keyword of a
class ``build_system`` wires (:data:`WIRED`), is a configuration tests
and benchmarks must cover, so each must be set by at least one caller
that is not a test.  The census reads every ``@dataclass`` named
``*Config`` under ``src/repro`` — the node modules define theirs
(``ServerConfig``, ``ClientConfig``) beside the node, not in
``core/config.py`` — and counts these ways of setting an option:

- a keyword passed to the class, directly or as ``shim.build(Config, ...)``;
- an argument passed to a wired class, by keyword or by position,
  credited to the class whose ``__init__`` binds it (an authority that
  inherits or only forwards ``*args`` binds its base's);
- a keyword passed to ``dataclasses.replace(...)``, credited to every
  config class that has a field of that name;
- a key under ``[tool.repro-lint]`` in ``pyproject.toml``, which the
  linter loads into ``LintConfig``.

A ``hasattr``-guarded poke through a local name (``simtest/runner.py``)
is written to survive the field's deletion and is not a caller that
needs it, and neither is an attribute set after construction (the E6
and A4 ablation switches on ``ServerLeaseAuthority``).

An option only tests set is listed in :data:`TEST_ONLY` with the reason
it stays; an entry that gains a real caller, or names an option that is
gone, fails too, so the list cannot rot.
"""

import ast
import dataclasses
import importlib
import inspect
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

#: The classes ``build_system`` wires: the nodes and their transports,
#: the lease and cluster roles, every authority and baseline agent, and
#: the retry policy endpoints are built with.
WIRED = (
    "repro.server.node.StorageTankServer",
    "repro.client.node.StorageTankClient",
    "repro.protocols.nfs_polling.NfsPollingClient",
    "repro.netcache.node.MetadataCacheNode",
    "repro.net.control.Endpoint",
    "repro.net.control.ControlNetwork",
    "repro.net.control.RetryPolicy",
    "repro.net.san.SanFabric",
    "repro.lease.client_lease.ClientLeaseManager",
    "repro.lease.agent.LeaseAgent",
    "repro.cluster.coordinator.ClusterCoordinator",
    "repro.cluster.takeover.ServerShardRole",
    "repro.protocols.base.SafetyAuthority",
    "repro.protocols.base.NoStealAuthority",
    "repro.protocols.steal.ImmediateStealAuthority",
    "repro.protocols.fencing_only.FencingOnlyAuthority",
    "repro.lease.server_lease.ServerLeaseAuthority",
    "repro.protocols.frangipani.FrangipaniAuthority",
    "repro.protocols.frangipani.FrangipaniClientAgent",
    "repro.protocols.vleases.VLeaseAuthority",
    "repro.protocols.vleases.VLeaseClientAgent",
)


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


def _import(path):
    module, name = path.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


CONFIGS = _config_classes()
WIRED_CLASSES = {cls.__name__: cls for cls in map(_import, WIRED)}

TEST_ONLY = {
    "Endpoint.dedup_capacity":
        "the at-most-once replay cache's bound: test_control_edge_cases "
        "shrinks it to 4 entries to see FIFO eviction in ten requests",
    "RetryPolicy.pending_timeout":
        "the wait for a parked transaction's final: test_control and "
        "test_control_edge_cases shorten it to reach the DeliveryError of "
        "an abandoned request",
    "ClientLeaseManager.probe_interval_local":
        "the disconnected probe period (the keep-alive interval by "
        "default): test_client_lease and test_lease_fsm set it apart from "
        "the keep-alive cadence to count probes",
    "ClusterConfig.push_to_clients":
        "pull-based rerouting (WRONG_OWNER -> CLUSTER_MAP_FETCH -> retry) "
        "is reachable only with pushes off",
    "ServerConfig.demand_chain":
        "retired by the lock-queue liveness item (ROADMAP); until then "
        "only the fuzzer's guarded poke arms it, for adversarial schedules",
    "ServerConfig.demand_escalate_rounds":
        "the no_demand_escalate break mode zeroes it through the runner's "
        "guarded poke; the byz-suppress-release-demand-escalation "
        "artifact's knock-out fires only through it",
    "NetworkConfig.ctrl_jitter":
        "reordered control replies: test_layout_delta raises it until two "
        "layout replies of one fd cross in flight",
    "NetworkConfig.ctrl_drop_probability":
        "a lossy control network: the stress tests run at 5-10% loss, and "
        "FaultInjector.end_loss_burst restores the configured rate",
    "SystemConfig.n_disks":
        "a multi-device SAN: striping, per-device fencing and single-disk "
        "SAN cuts (test_multi_disk)",
    "SystemConfig.disk_blocks":
        "a disk small enough that one file's extent map spans devices "
        "(test_multi_disk)",
    "SystemConfig.frangipani_heartbeat":
        "the §5 heartbeat baseline's period: test_frangipani shortens it "
        "to check expiry and steal timing against it",
    "SystemConfig.vlease_object_duration":
        "the §4 V-lease baseline's per-object term: test_vleases shortens "
        "it to check per-object expiry against it",
    "SystemConfig.nfs_attr_ttl":
        "the §5 polling baseline's staleness bound: test_nfs checks the "
        "stale window at two TTLs",
}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _binder(cls):
    """The class whose ``__init__`` binds a call's arguments: the nearest
    in the MRO that defines one and does not just forward ``*args``."""
    for klass in cls.__mro__:
        init = vars(klass).get("__init__")
        if init is not None and all(
                p.kind is not p.VAR_POSITIONAL
                for p in inspect.signature(init).parameters.values()):
            return klass
    raise TypeError(f"{cls.__name__} has no __init__ of its own")


def _params(klass):
    """``klass.__init__``'s parameters after ``self``."""
    return list(inspect.signature(klass.__init__).parameters.values())[1:]


def _constructor_keywords():
    """``Class.keyword`` for every default-valued ``__init__`` keyword of
    a wired class, named after the class whose ``__init__`` declares it."""
    return {f"{klass.__name__}.{p.name}"
            for klass in {_binder(cls) for cls in WIRED_CLASSES.values()}
            for p in _params(klass) if p.default is not p.empty}


def _owners():
    """Field name -> every config class that has a field of that name."""
    owners = {}
    for name, cls in CONFIGS.items():
        for f in dataclasses.fields(cls):
            owners.setdefault(f.name, []).append(name)
    return owners


def _lint_config_keys():
    """``LintConfig.<field>`` for every key under ``[tool.repro-lint]``."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        table = tomllib.load(fh)["tool"]["repro-lint"]
    return {f"LintConfig.{key.replace('-', '_')}" for key in table}


def fields_set_by_callers():
    """``Config.field`` or ``Class.keyword`` for every option a non-test
    caller sets: a keyword to a config dataclass or to ``replace``, an
    argument to a wired class, or a lint config key."""
    owners = _owners()
    seen = _lint_config_keys()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                keywords = [kw.arg for kw in node.keywords if kw.arg]
                target = _name(node.func)
                if target == "replace":
                    seen.update(f"{cls}.{kw}" for kw in keywords
                                for cls in owners.get(kw, ()))
                    continue
                if target in WIRED_CLASSES:
                    klass = _binder(WIRED_CLASSES[target])
                    if not any(isinstance(a, ast.Starred) for a in node.args):
                        keywords += [p.name for p in
                                     _params(klass)[:len(node.args)]]
                    seen.update(f"{klass.__name__}.{kw}" for kw in keywords)
                    continue
                if target not in CONFIGS and node.args:
                    target = _name(node.args[0])
                if target in CONFIGS:
                    seen.update(f"{target}.{kw}" for kw in keywords)
    return seen


def all_fields():
    return {f"{name}.{f.name}" for name, cls in CONFIGS.items()
            for f in dataclasses.fields(cls)} | _constructor_keywords()


def test_census_reads_every_config_class():
    assert {"SystemConfig", "ServerConfig", "ClientConfig",
            "LintConfig"} <= set(CONFIGS)
    seen = fields_set_by_callers()
    assert "SystemConfig.n_clients" in seen          # keyword callers
    assert "LintConfig.exclude" in seen              # pyproject keys


def test_census_reads_every_wired_constructor():
    options, seen = _constructor_keywords(), fields_set_by_callers()
    assert {"StorageTankServer.id_base", "SafetyAuthority.obs",
            "RetryPolicy.retries"} <= options
    assert "NoStealAuthority.trace" not in options   # binds its base's
    assert "StorageTankServer.id_base" in seen        # keyword callers
    assert "ControlNetwork.trace" in seen             # positional callers
    assert "SafetyAuthority.obs" in seen              # through a subclass


def test_every_option_has_a_caller_outside_tests():
    fields, seen = all_fields(), fields_set_by_callers()
    assert len(fields) >= 50
    uncalled = fields - seen
    assert uncalled == set(TEST_ONLY), (
        f"options no non-test caller sets: {sorted(uncalled - set(TEST_ONLY))}; "
        f"make each a constant or derive it, or justify it in TEST_ONLY")


def test_test_only_entries_are_still_needed():
    assert set(TEST_ONLY) <= all_fields()
    assert not set(TEST_ONLY) & fields_set_by_callers()
    assert all(TEST_ONLY.values())
