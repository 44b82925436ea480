"""Same verdicts? Run one fixed schedule set on two refs and diff them.

A change to the oracles, the run index or the lease model must leave
every verdict as it was: the fired names that the rotation test pins are
too coarse for that, so this runs each schedule of a fixed set on both
sides and compares each run's trace hash and full violation list
(``OracleViolation.to_dict()``)::

    python benchmarks/differential.py --base REV [--change REV] [--drop KIND ...]

Both sides are exported as ``benchmarks/ab.py`` exports them (without
``--change``: this checkout's tracked files, uncommitted edits
included).  Each side runs, in one fresh process against its own
``src/``:

- every corpus entry (the side's ``corpus.json``);
- every artifact under ``tests/simtest/artifacts/``, and each again
  under its recorded ``knockout_break_mode``;
- every break mode at seeds 0-11, 20 steps, with no flags, with
  ``adversaries=2`` and with ``cache_nodes=2``;
- ``fault_fuzz``'s rotation at seeds 0-319 (flags on ``seed mod 4``);
- the ``steady_rw`` and ``meta_cache`` benchmark windows at seed 0
  (``bench/workloads.py``, full size), compared on the full
  ``trace.digest()``: the only runs long enough to fill the trace
  recorder's sealed chunks.

With ``--drop KIND ...`` each side compares the sha256 of the run's
canonical ``trace_lines`` (of a window, its ``canonical_lines()``) with
records of the named kinds removed, in place of the raw trace hash: the
proof that a change which only adds (or removes) those kinds leaves
every other record as it was.

It prints each run whose hash or violation list differs and exits 1 if
there is any; 0 when every run agrees.  It also prints each side's wall
time: about 30 s per side on a 2-CPU host (more with ``--drop``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Any, Collection, Dict, List, Optional

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from benchmarks.ab import REPO, _git, checkout_commit, export  # noqa: E402

#: One run's comparable outcome: its trace hash and violation dicts.
Outcome = Dict[str, Any]

#: ``fault_fuzz``'s rotation (bench/workloads.py): flags on ``i mod 4``.
ROTATION = ({}, {"cache_nodes": 2}, {"adversaries": 2}, {})
FLAG_SETS = ({}, {"adversaries": 2}, {"cache_nodes": 2})
BREAK_SEEDS = range(12)
ROTATION_SEEDS = range(320)
WINDOWS = ("steady_rw", "meta_cache")


def lines_hash(lines: List[str], drop: Collection[str]) -> str:
    """sha256 of canonical trace lines (``"{time} {kind} {node} ..."``)
    without the records whose kind is in ``drop``."""
    kept = [line for line in lines if line.split(" ", 2)[1] not in drop]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


def collect(checkout: str, drop: Collection[str] = ()) -> Dict[str, Outcome]:
    """Run the whole set with the ``repro`` importable now (the side's
    ``src/``); artifacts are read from ``checkout``.  With ``drop``, a
    run's ``trace_hash`` is :func:`lines_hash` of its trace lines."""
    import dataclasses
    import glob

    from repro.obs.artifact import load_artifact
    from repro.simtest.corpus import load_corpus
    from repro.simtest.runner import BREAK_MODES, run_schedule, trace_lines
    from repro.simtest.schedule import Schedule, generate_schedule

    out: Dict[str, Outcome] = {}

    def run(run_id: str, schedule: Any) -> None:
        result = run_schedule(schedule, keep_system=bool(drop))
        trace = result.trace_hash
        if drop:
            assert result.system is not None
            trace = lines_hash(trace_lines(result.system), drop)
        out[run_id] = {"trace_hash": trace,
                       "violations": [v.to_dict() for v in result.violations]}

    for e in load_corpus():
        run(f"corpus seed={e.seed} steps={e.n_steps} cache={e.cache_nodes} "
            f"adv={e.adversaries}",
            generate_schedule(e.seed, e.n_steps, cache_nodes=e.cache_nodes,
                              adversaries=e.adversaries))
    pattern = os.path.join(checkout, "tests", "simtest", "artifacts", "*.json")
    for path in sorted(glob.glob(pattern)):
        doc = load_artifact(path)
        name = os.path.basename(path)
        schedule = Schedule.from_dict(doc["schedule"])
        run(f"artifact {name}", schedule)
        mode = doc.get("extra", {}).get("knockout_break_mode")
        if mode:
            run(f"artifact {name} break={mode}",
                dataclasses.replace(schedule, break_mode=mode))
    for mode in sorted(BREAK_MODES):
        for flags in FLAG_SETS:
            for seed in BREAK_SEEDS:
                run(f"break={mode} seed={seed} flags={flags}",
                    generate_schedule(seed, 20, break_mode=mode, **flags))
    for seed in ROTATION_SEEDS:
        flags = ROTATION[seed % 4]
        run(f"rotation seed={seed} flags={flags}",
            generate_schedule(seed, 20, **flags))
    for name in WINDOWS:
        out[f"window {name} seed=0"] = {
            "trace_hash": window_hash(checkout, name, drop), "violations": []}
    return out


def window_hash(checkout: str, name: str, drop: Collection[str]) -> str:
    """The full ``trace.digest()`` of benchmark workload ``name``'s
    window at seed 0 (with ``drop``: :func:`lines_hash` of its lines)."""
    bench = os.path.join(checkout, "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from shim import ConfigShim
    from workloads import WORKLOADS

    workload = WORKLOADS[name](0, 1.0, ConfigShim())
    workload.prepare()
    workload.window()
    trace = workload.system.trace
    if drop:
        return lines_hash(trace.canonical_lines(), drop)
    return str(trace.digest())


def differences(base: Dict[str, Outcome],
                change: Dict[str, Outcome]) -> List[str]:
    """One line per run whose outcome differs, in run-id order."""
    lines = []
    for run_id in sorted(set(base) | set(change)):
        b, c = base.get(run_id), change.get(run_id)
        if b is None or c is None:
            lines.append(f"{run_id}: only on the "
                         f"{'base' if c is None else 'change'} side")
            continue
        what = []
        if b["trace_hash"] != c["trace_hash"]:
            what.append(f"trace hash {b['trace_hash'][:12]} -> "
                        f"{c['trace_hash'][:12]}")
        if b["violations"] != c["violations"]:
            what.append(
                f"violations {len(b['violations'])} -> "
                f"{len(c['violations'])}"
                + _listed("-", b["violations"], c["violations"])
                + _listed("+", c["violations"], b["violations"]))
        if what:
            lines.append(f"{run_id}: " + "; ".join(what))
    return lines


def _listed(sign: str, these: List[Any], other: List[Any]) -> str:
    """One indented line per violation of ``these`` not in ``other``."""
    return "".join(f"\n    {sign} {v['oracle']} t={v['time']:.3f} "
                   f"{v['node']}: {v['message']}"
                   for v in these if v not in other)


def _side(checkout: str, tmp: str, side: str,
          drop: Collection[str]) -> Dict[str, Outcome]:
    """:func:`collect` in a fresh process importing ``checkout``'s src."""
    result = os.path.join(tmp, f"{side}.json")
    code = ("import json, pathlib, sys; sys.path[:0] = sys.argv[1:3]; "
            "from benchmarks.differential import collect; "
            "pathlib.Path(sys.argv[4]).write_text("
            "json.dumps(collect(sys.argv[3], sys.argv[5:])))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, os.path.join(checkout, "src"),
                    REPO, checkout, result, *drop], cwd=checkout, env=env,
                   check=True)
    print(f"{side}: {time.perf_counter() - started:.1f} s wall")
    with open(result) as fh:
        runs: Dict[str, Outcome] = json.load(fh)
    return runs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument("--change", metavar="REV",
                        help="default: this checkout's tracked files, "
                             "uncommitted edits included")
    parser.add_argument("--drop", nargs="+", default=[], metavar="KIND",
                        help="compare trace lines without these record "
                             "kinds instead of the raw trace hash")
    args = parser.parse_args(argv)
    refs = {"base": _git("rev-parse", "--verify", args.base + "^{commit}"),
            "change": (_git("rev-parse", "--verify", args.change + "^{commit}")
                       if args.change else checkout_commit())}
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        runs = {side: _side(export(sha, os.path.join(tmp, side)), tmp, side,
                            args.drop)
                for side, sha in refs.items()}
    lines = differences(runs["base"], runs["change"])
    for line in lines:
        print(line)
    print(f"{len(runs['change'])} runs, {len(lines)} differ "
          f"(base {refs['base'][:12]}, change {refs['change'][:12]})")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
