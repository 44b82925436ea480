"""Knock-out tests: the real violations RPL010 surfaced in the product
code fire when reintroduced, and the shipped fixes stay silent.

Each case mirrors a defect that existed in ``src/repro`` before this
engine landed (see DESIGN.md SS16) as a minimal snippet: the *bad*
variant reproduces the pre-fix shape, the *fixed* variant reproduces
the shape now in the tree.  If a rule regresses, the bad variant stops
firing and this file catches it.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_source, load_config

REPO_ROOT = Path(__file__).resolve().parents[2]


def _lint(source, code, path="src/repro/server/fixture_mod.py"):
    config = load_config(explicit=REPO_ROOT / "pyproject.toml")
    return lint_source(textwrap.dedent(source), path=path,
                       config=config, select=[code])


# -- CLOSE: client ships file_id, old server handler ignored it -------------

_CLOSE_BAD = """
    class Node:
        def install(self):
            self.endpoint.register(MsgKind.CLOSE, self._h_close)

        def close(self, fid):
            self.endpoint.request(self.server, MsgKind.CLOSE,
                                  {"file_id": fid})

        def _h_close(self, msg):
            return ("ack", {})
"""

_CLOSE_FIXED = """
    class Node:
        def install(self):
            self.endpoint.register(MsgKind.CLOSE, self._h_close)

        def close(self, fid):
            self.endpoint.request(self.server, MsgKind.CLOSE,
                                  {"file_id": fid})

        def _h_close(self, msg):
            fid = int(msg.payload["file_id"])
            self.closes_by_file[fid] = self.closes_by_file.get(fid, 0) + 1
            return ("ack", {})
"""


def test_close_file_id_dead_write_fires():
    result = _lint(_CLOSE_BAD, "RPL010")
    assert any("dead write" in v.message and "file_id" in v.message
               for v in result.violations)


def test_close_file_id_fix_is_silent():
    assert _lint(_CLOSE_FIXED, "RPL010").violations == []


# -- DATA_WRITE: sender ships data_bytes, old handler hardcoded a size ------

_DATA_WRITE_BAD = """
    class Node:
        def install(self):
            self.endpoint.register(MsgKind.DATA_WRITE, self._h_data_write)

        def write(self, fid, nbytes):
            self.endpoint.request(self.disk, MsgKind.DATA_WRITE,
                                  {"file_id": fid, "data_bytes": nbytes})

        def _h_data_write(self, msg):
            fid = int(msg.payload["file_id"])
            self.data_bytes_served += BLOCK_SIZE  # ignores the payload
            return ("ack", {"file_id": fid})
"""

_DATA_WRITE_FIXED = """
    class Node:
        def install(self):
            self.endpoint.register(MsgKind.DATA_WRITE, self._h_data_write)

        def write(self, fid, nbytes):
            self.endpoint.request(self.disk, MsgKind.DATA_WRITE,
                                  {"file_id": fid, "data_bytes": nbytes})

        def _h_data_write(self, msg):
            fid = int(msg.payload["file_id"])
            self.data_bytes_served += int(msg.payload["data_bytes"])
            return ("ack", {"file_id": fid})
"""


def test_data_write_bytes_dead_write_fires():
    result = _lint(_DATA_WRITE_BAD, "RPL010")
    assert any("dead write" in v.message and "data_bytes" in v.message
               for v in result.violations)


def test_data_write_bytes_fix_is_silent():
    assert _lint(_DATA_WRITE_FIXED, "RPL010").violations == []


# -- RANGE_DEMAND: probed by the server, old client used a lambda stub ------

_RANGE_DEMAND_BAD = """
    class Node:
        def install(self):
            self.endpoint.register(MsgKind.RANGE_DEMAND,
                                   lambda m: ("ack", {}))

        def probe(self, client, fid):
            self.endpoint.request(client, MsgKind.RANGE_DEMAND,
                                  {"file_id": fid})
"""

_RANGE_DEMAND_FIXED = """
    class Node:
        def install(self):
            self.endpoint.register(MsgKind.RANGE_DEMAND,
                                   self._on_range_demand)

        def probe(self, client, fid):
            self.endpoint.request(client, MsgKind.RANGE_DEMAND,
                                  {"file_id": fid})

        def _on_range_demand(self, msg):
            file_id = msg.payload.get("file_id")
            if file_id is not None:
                self.range_demands_seen[int(file_id)] = 1
            return ("ack", {})
"""


def test_range_demand_lambda_stub_dead_write_fires():
    result = _lint(_RANGE_DEMAND_BAD, "RPL010")
    assert any("dead write" in v.message and "file_id" in v.message
               for v in result.violations)


def test_range_demand_fix_is_silent():
    assert _lint(_RANGE_DEMAND_FIXED, "RPL010").violations == []


# -- GETATTR: old handler hard-read an optional field no sender set ---------

_GETATTR_BAD = """
    class Node:
        def install(self):
            self.endpoint.register(MsgKind.GETATTR, self._h_getattr)

        def stat(self, path):
            self.endpoint.request(self.server, MsgKind.GETATTR,
                                  {"path": path})

        def _h_getattr(self, msg):
            if "path" in msg.payload:
                return ("ack", {"path": msg.payload["path"]})
            fid = msg.payload["file_id"]  # no sender ever sets it
            return ("ack", {"file_id": fid})
"""

_GETATTR_FIXED = """
    class Node:
        def install(self):
            self.endpoint.register(MsgKind.GETATTR, self._h_getattr)

        def stat(self, path):
            self.endpoint.request(self.server, MsgKind.GETATTR,
                                  {"path": path})

        def _h_getattr(self, msg):
            if "path" in msg.payload:
                return ("ack", {"path": msg.payload["path"]})
            elif "file_id" in msg.payload:
                return ("ack", {"file_id": msg.payload["file_id"]})
            return ("nack", {"error": "getattr: no path or file_id"})
"""


def test_getattr_never_set_read_fires():
    result = _lint(_GETATTR_BAD, "RPL010")
    assert any("never-set read" in v.message and "file_id" in v.message
               for v in result.violations)


def test_getattr_probe_fix_is_silent():
    assert _lint(_GETATTR_FIXED, "RPL010").violations == []


# -- the shipped tree keeps exercising the schemas the fixes promised -------

def test_product_tree_still_reads_close_census_fields():
    """The fixed handlers exist and read what senders ship."""
    server = (REPO_ROOT / "src/repro/server/node.py").read_text()
    assert "closes_by_file" in server
    assert 'int(msg.payload["data_bytes"])' in server
    client = (REPO_ROOT / "src/repro/client/lockclient.py").read_text()
    assert "_on_range_demand" in client
    assert "range_demands_seen" in client


# -- RPL013: the four hand-written dispatch sites must not grow back --------

def test_second_dispatch_loop_in_the_transport_fires():
    """Three recovery holes were a reply class skipping one of several
    dispatch sites.  The shipped transport is silent; hand-inlining the
    observer loop back into ``request()`` fires the rule."""
    from repro.lint import lint_source
    path = "src/repro/net/control.py"
    config = load_config(explicit=REPO_ROOT / "pyproject.toml")
    source = (REPO_ROOT / path).read_text()
    assert lint_source(source, path=path, config=config,
                       select=["RPL013"]).violations == []
    call = "                    self._deliver_reply(msg, reply, attempt_times)\n"
    assert call in source
    inlined = source.replace(
        call,
        "                    for observer in self.observers:\n"
        "                        observer.on_reply(reply, None)\n", 1)
    result = lint_source(inlined, path=path, config=config,
                         select=["RPL013"])
    assert [v.code for v in result.violations] == ["RPL013"]
    assert "on_reply" in result.violations[0].message


# -- the node layers: every rule that guarded the node modules still has
# -- its subject in the module the code moved to ------------------------------

_LAYER_KNOCKOUTS = [
    # (rule, shipped file, text to break, what it becomes)
    ("RPL002", "src/repro/server/lockservice.py",
     "MsgKind.RANGE_DEMAND, {", "MsgKind.KEEPALIVE, {"),
    ("RPL006", "src/repro/server/lockservice.py",
     "server._register(MsgKind.LOCK_DOWNGRADE, self._h_lock_downgrade)",
     "pass"),
    ("RPL006", "src/repro/server/intents.py",
     "server._register(MsgKind.LOCK_BATCH, self._h_lock_batch)", "pass"),
    ("RPL006", "src/repro/client/lockclient.py",
     "endpoint.register(MsgKind.CACHE_INVALIDATE, "
     "self._on_cache_invalidate)", "pass"),
    # Finishing the body inline instead of handing it to the responder.
    ("RPL009", "src/repro/server/node.py",
     "return self._create(msg.payload[\"path\"],\n"
     "                            int(msg.payload.get(\"size\", 0)))",
     "return next(self._create(msg.payload[\"path\"],\n"
     "                            int(msg.payload.get(\"size\", 0))))"),
    ("RPL011", "src/repro/server/node.py",
     "yield from self.barrier._invalidate_caches(\n"
     "                    barrier, {\"file_ids\": [file_id]})", "pass"),
    ("RPL012", "src/repro/server/node.py",
     "self.barrier._cache_pending.discard(barrier)", "pass"),
    ("RPL012", "src/repro/client/node.py",
     "        finally:\n            self._exit()\n\n    def open_file",
     "        finally:\n            pass\n\n    def open_file"),
    ("RPL012", "src/repro/client/node.py",
     "self.lockclient._unpin_file(of.file_id)", "pass"),
    ("RPL012", "src/repro/client/node.py",
     "yield from self.lockclient._batch_release(of, spans)", "pass"),
    ("RPL012", "src/repro/client/lockclient.py",
     "self._revoking.discard(file_id)", "pass"),
    ("RPL013", "src/repro/client/node.py",
     "raise NackError(req, Nack(  # repro-lint: ignore[RPL013]",
     "raise NackError(req, Nack("),
]


@pytest.mark.parametrize("code,path,old,new", _LAYER_KNOCKOUTS)
def test_rule_still_fires_in_the_layer_its_subject_moved_to(code, path,
                                                            old, new):
    config = load_config(explicit=REPO_ROOT / "pyproject.toml")
    source = (REPO_ROOT / path).read_text()
    assert old in source
    assert lint_source(source, path=path, config=config,
                       select=[code]).violations == []
    broken = lint_source(source.replace(old, new), path=path, config=config,
                         select=[code])
    assert {v.code for v in broken.violations} == {code}


def test_schema_drift_joins_a_demand_to_its_handler_across_layers(tmp_path):
    """RPL010 is project-wide: the server's lock service builds the
    demand, the client's lock layer reads it."""
    from repro.lint import LintConfig, lint_paths
    sender, handler = ("src/repro/server/lockservice.py",
                       "src/repro/client/lockclient.py")
    for rel in (sender, handler):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text((REPO_ROOT / rel).read_text())
    config = LintConfig(root=tmp_path)
    assert lint_paths([tmp_path / "src"], config=config,
                      select=["RPL010"]).violations == []
    field = '"needed_mode": int(needed)'
    text = (tmp_path / sender).read_text()
    assert field in text
    (tmp_path / sender).write_text(text.replace(field, '"wanted": 1'))
    found = lint_paths([tmp_path / "src"], config=config,
                       select=["RPL010"]).violations
    assert any("never-set read" in v.message and "needed_mode" in v.message
               and v.path.endswith("lockclient.py") for v in found)
    assert any("dead write" in v.message and "wanted" in v.message
               and v.path.endswith("lockservice.py") for v in found)
