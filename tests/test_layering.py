"""The node modules stay layers: who may import whom, how big a layer
may grow, and which one module tells the application about its data."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Layers of each node package; they may not import their façade
#: (``node``) or one another when the module runs.
COLLABORATORS = {"client": ("datapath", "routing", "lockclient"),
                 "server": ("lockservice", "intents", "barrier")}
#: Layers with a second user outside their package import nothing of
#: the first user's world.
SHARED = {"client/datapath.py": ("repro.client.node", "repro.netcache",
                                 "repro.protocols"),
          "lease/agent.py": ("repro.client", "repro.netcache",
                             "repro.protocols"),
          # a model of the trace, not of the implementation
          "simtest/leasemodel.py": ("repro.client", "repro.server",
                                    "repro.netcache", "repro.protocols")}
#: ``net/control.py`` holds both halves of the endpoint (they do not
#: separate: the requester's polls are answered from the responder's
#: replay record); it may not grow.
LINE_CAPS = {"client/node.py": 800, "server/node.py": 600,
             "net/control.py": 760}
METHOD_CAPS = {"client/node.py": ("StorageTankClient", 45),
               "server/node.py": ("StorageTankServer", 35)}
#: Audit records with one emitter, ``client/datapath.py``; anything else
#: that emits one is listed with its reason.
AUDIT_KINDS = {"app.error", "cache.flushed", "app.write.ack", "app.read"}
OTHER_EMITTERS = {
    ("protocols/dlock_fs.py", "app.write.ack"):
        "DlockClient has no cache: write-through under a device lock",
    ("protocols/dlock_fs.py", "app.read"): "DlockClient reads uncached",
}


def runtime_imports(path):
    """Modules a file imports when it runs (``if TYPE_CHECKING:`` aside)."""
    found = set()
    todo = list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            continue
        if isinstance(node, ast.ImportFrom):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_collaborators_import_neither_their_facade_nor_each_other():
    for package, layers in COLLABORATORS.items():
        for layer in layers:
            banned = {f"repro.{package}.{other}"
                      for other in (*layers, "node") if other != layer}
            got = runtime_imports(SRC / package / f"{layer}.py")
            assert not got & banned, (package, layer, got & banned)


def test_shared_layers_know_nothing_of_their_users():
    for rel, banned in SHARED.items():
        for module in runtime_imports(SRC / rel):
            assert not module.startswith(banned), (rel, module)


def test_no_layer_outgrows_its_cap():
    files = [*(SRC / "client").glob("*.py"), *(SRC / "server").glob("*.py"),
             SRC / "lease" / "agent.py", SRC / "net" / "control.py"]
    for path in files:
        rel = path.relative_to(SRC).as_posix()
        lines = len(path.read_text().splitlines())
        assert lines <= LINE_CAPS.get(rel, 450), (rel, lines)
    for rel, (cls, cap) in METHOD_CAPS.items():
        [node] = [n for n in ast.parse((SRC / rel).read_text()).body
                  if isinstance(n, ast.ClassDef) and n.name == cls]
        methods = sum(isinstance(n, ast.FunctionDef) for n in node.body)
        assert methods <= cap, (cls, methods)


def test_the_data_path_is_the_only_emitter_of_its_audit_records():
    seen = set()
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "mark_flushed":
                seen.add((rel, "mark_flushed("))
            elif (node.func.attr == "emit" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                # A "kind#variant" key records the kind before the "#".
                kind = node.args[1].value.partition("#")[0]
                if kind in AUDIT_KINDS:
                    seen.add((rel, kind))
    elsewhere = {s for s in seen if s[0] != "client/datapath.py"}
    assert elsewhere == set(OTHER_EMITTERS), elsewhere
    assert {kind for _, kind in seen - elsewhere} == AUDIT_KINDS | {
        "mark_flushed("}


def test_the_responder_has_one_deferred_path():
    """The endpoint decides sync or deferred in one place, by what the
    handler did: one generator test, one process per parked transaction,
    and no handler that finishes its own generator to stay synchronous."""
    control = (SRC / "net" / "control.py").read_text()
    assert control.count('hasattr(result, "send")') == 1
    assert control.count("sim.process(") == 1
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for gone in ("settle(", "ignore[RPL009]", "send_result"):
            assert gone not in text, (path.relative_to(SRC).as_posix(), gone)
