"""Call-graph unit tests: registrations, deferral and inline reach."""

import ast
import textwrap

from repro.lint.callgraph import (call_sites, handler_registrations,
                                  inline_reach)
from repro.lint.config import LintConfig
from repro.lint.engine import FileContext
from repro.lint.project import ProjectIndex


def _index(sources):
    cfg = LintConfig()
    ctxs = [FileContext(path, textwrap.dedent(src),
                        ast.parse(textwrap.dedent(src)), cfg)
            for path, src in sources.items()]
    return ProjectIndex(ctxs)


_SERVER = """
    import time


    class Server:
        def install(self):
            self.endpoint.register(MsgKind.OPEN, self._h_open)
            self.endpoint.register(MsgKind.PING, lambda m: ("ack", {}))
            self._register(MsgKind.READ, self._h_read)

        def _h_open(self, msg):
            self._slow()
            return ("ack", {})

        def _h_read(self, msg):
            return self._work(msg)

        def _slow(self):
            time.sleep(0.5)

        def _work(self, msg):
            yield 1
"""


def test_registrations_resolve_kind_and_handler():
    index = _index({"src/repro/server/node.py": _SERVER})
    regs = handler_registrations(index)
    by_kind = {r.kind: r for r in regs}
    assert set(by_kind) == {"OPEN", "PING", "READ"}
    assert by_kind["OPEN"].handler is not None
    assert by_kind["OPEN"].handler.qualname == "Server._h_open"
    assert by_kind["PING"].handler_lambda is not None
    assert by_kind["READ"].handler.qualname == "Server._h_read"
    # Both endpoint.register and the server's _register shorthand count.
    assert by_kind["READ"].registrar.qualname == "Server.install"


def test_returned_generator_call_is_deferred():
    index = _index({"src/repro/server/node.py": _SERVER})
    module = index.by_path["src/repro/server/node.py"]
    h_read = module.functions["Server._h_read"]
    sites = call_sites(index, h_read)
    assert len(sites) == 1
    assert sites[0].deferred
    assert sites[0].callee.is_generator


def test_process_spawn_is_deferred_but_arguments_are_not():
    src = """
        class S:
            def h(self, msg):
                self.sim.process(self.work(msg))

            def work(self, msg):
                yield 1
    """
    index = _index({"src/repro/server/node.py": src})
    module = index.by_path["src/repro/server/node.py"]
    sites = call_sites(index, module.functions["S.h"])
    by_name = {}
    for s in sites:
        func = s.call.func
        if isinstance(func, ast.Attribute):
            by_name[func.attr] = s
    assert by_name["work"].deferred
    assert not by_name["process"].deferred


def test_inline_reach_crosses_helpers_but_not_generators():
    index = _index({"src/repro/server/node.py": _SERVER})
    module = index.by_path["src/repro/server/node.py"]
    h_open = module.functions["Server._h_open"]
    dotted = {site.dotted
              for path in inline_reach(index, h_open)
              for site in [path[-1]] if site.dotted}
    assert "time.sleep" in dotted

    h_read = module.functions["Server._h_read"]
    # _work is a generator: inline_reach reports the call site itself
    # but never walks into the generator body.
    labels = [p[-1].callee.qualname if p[-1].callee else p[-1].dotted
              for p in inline_reach(index, h_read)]
    assert labels == ["Server._work"]


def test_inline_reach_resolves_cross_module_imports():
    helpers = """
        import time


        def spin(budget):
            time.sleep(budget)
    """
    server = """
        from repro.server.helpers import spin


        class Server:
            def _h_open(self, msg):
                spin(0.1)
                return ("ack", {})
    """
    index = _index({"src/repro/server/helpers.py": helpers,
                    "src/repro/server/node.py": server})
    module = index.by_path["src/repro/server/node.py"]
    h_open = module.functions["Server._h_open"]
    dotted = {p[-1].dotted for p in inline_reach(index, h_open)
              if p[-1].dotted}
    assert "time.sleep" in dotted
