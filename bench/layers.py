"""Per-layer attribution of one traced window.

The program has no layer spans of its own yet, so the trace is taken from
outside: ``cProfile`` is enabled around the measured window only, and each
function's *self* time (duration minus children, so the rows sum to the
window by construction) goes to the layer of the module that defines it.
Time in C builtins, the standard library and numpy has no layer of its own
and goes to the layer of the function that *called* it, following the
profiler's caller edges upward until a layered function is found.

``calls`` of a layer counts calls that cross into it from another layer,
that is calls into its public surface, not its internal traffic.
"""

from __future__ import annotations

import cProfile
import os
from typing import Any, Callable, Dict, List, Tuple

#: Layer of each module under ``src/repro`` (longest prefix wins).
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/trace.py", "sim.trace"),
    ("sim/", "sim"),
    ("obs/", "obs"),
    ("net/san.py", "net.san"),
    ("net/", "net.control"),        # control + message + partition
    ("storage/", "storage"),
    ("client/", "client"),
    ("lease/", "lease"),
    ("locks/", "locks"),
    ("metadata/", "metadata"),
    ("server/", "server"),
    ("netcache/", "netcache"),
    ("fault/", "fault"),
    ("simtest/oracles.py", "simtest.oracles"),
    ("simtest/", "simtest.runner"),  # runner + schedule generation
    ("protocols/", "protocols"),
    ("analysis/", "analysis"),
    ("workloads/", "workloads"),
    ("core/", "core"),
    ("harness/", "harness"),
)

DRIVER = "bench.driver"
UNATTRIBUTED = "unattributed"
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in _MODULE_LAYERS])) + (DRIVER, UNATTRIBUTED)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to ('' = none: stdlib, numpy, C)."""
    path = os.path.abspath(filename) if filename else ""
    if path.startswith(_BENCH_DIR):
        return DRIVER
    at = path.rfind(_REPRO_MARK)
    if at < 0:
        return ""
    rel = path[at + len(_REPRO_MARK):].replace(os.sep, "/")
    for prefix, layer in _MODULE_LAYERS:
        if rel.startswith(prefix):
            return layer
    return ""


def _layer_of_code(code: Any) -> str:
    # Builtins are reported as strings, Python functions as code objects.
    return "" if isinstance(code, str) else layer_of_file(code.co_filename)


def profile_window(fn: Callable[[], None]) -> List[Any]:
    """Run ``fn`` under the profiler; returns the raw profiler entries."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return profiler.getstats()


def attribute(entries: List[Any]) -> Dict[str, Dict[str, float]]:
    """Fold profiler entries into ``{layer: {self_s, self_share, calls}}``.

    ``entries`` is ``cProfile.Profile.getstats()``: one entry per function
    with its self time and, per callee, the self time spent in that callee
    when called from this function.
    """
    own = {id(e.code): _layer_of_code(e.code) for e in entries}
    # callers[callee] = [(caller, self seconds of callee under that caller)]
    callers: Dict[int, List[Tuple[int, float]]] = {}
    for e in entries:
        for sub in e.calls or ():
            callers.setdefault(id(sub.code), []).append(
                (id(e.code), sub.inlinetime))

    resolved: Dict[int, str] = {}

    def owner(code_id: int, seen: Tuple[int, ...] = ()) -> str:
        """Layer answerable for an unlayered function: that of the caller
        it spent most time under, found recursively."""
        if own[code_id]:
            return own[code_id]
        if code_id in resolved:
            return resolved[code_id]
        best = UNATTRIBUTED
        for caller, _ in sorted(callers.get(code_id, ()),
                                key=lambda edge: -edge[1]):
            if caller in seen:
                continue
            found = owner(caller, seen + (code_id,))
            if found != UNATTRIBUTED:
                best = found
                break
        resolved[code_id] = best
        return best

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for e in entries:
        layer = own[id(e.code)]
        if layer:
            self_s[layer] += e.inlinetime
        else:
            # Split an unlayered function's self time over its callers.
            edges = callers.get(id(e.code), ())
            covered = 0.0
            for caller, seconds in edges:
                self_s[owner(caller)] += seconds
                covered += seconds
            self_s[UNATTRIBUTED] += max(e.inlinetime - covered, 0.0)
        for sub in e.calls or ():
            callee_layer = own[id(sub.code)]
            if callee_layer and callee_layer != owner(id(e.code)):
                calls[callee_layer] += sub.callcount
    total = sum(self_s.values())
    return {layer: {"self_s": self_s[layer],
                    "self_share": self_s[layer] / total if total else 0.0,
                    "calls": calls[layer]}
            for layer in LAYERS}


def cumulative_seconds(entries: List[Any], file_suffix: str,
                       func_name: str) -> float:
    """Total (inclusive) traced seconds of one named program function."""
    for e in entries:
        code = e.code
        if (not isinstance(code, str) and code.co_name == func_name
                and code.co_filename.replace(os.sep, "/").endswith(
                    file_suffix)):
            return e.totaltime
    return 0.0
