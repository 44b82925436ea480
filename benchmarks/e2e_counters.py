"""Exact-counter gate over the end-to-end benchmark: ``BENCH_e2e.json``.

Wall time on the reference box drifts by ±12%, so ``bench/``'s wall
bounds are 25% wide and catch only disasters.  The simulator's own
counts do not drift at all: for a fixed seed they are the same on every
run and every machine.  This tool runs each ``bench/`` workload once,
traced, in a fresh process (``bench/run.py --workload W --seed 0
--seconds 12 --trace 1 --detail <tmp>``; nothing under ``bench/`` is
edited) and keeps, per workload:

- ``sim_digest`` and five simulated counts, which must be **equal** to
  the committed ones (a change that moves them on purpose re-writes the
  file and says why);
- ``trace.calls_per_work``, Python calls per unit of work as the
  profiler counts them, allowed ±2%: it is exact for one interpreter
  but moves by a fraction of a percent with its patch version.

Usage::

    python benchmarks/e2e_counters.py --write BENCH_e2e.json
    python benchmarks/e2e_counters.py --check BENCH_e2e.json [--workload W ...]

Exit codes: 0 all equal / within band, 1 a counter moved, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

SCHEMA = "repro.bench-e2e/1.0"
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0

#: Read from the run's ``end_to_end`` block (``None`` on the workloads
#: whose load generator belongs to the program) and ``per_layer`` block.
EXACT = ("sim.events_per_work", "sim.trace.records_per_work",
         "ctrl_msgs_per_op", "server_txn_per_op", "net.control.bytes")
BANDED = {"trace.calls_per_work": 0.02}


def measure(workload: str, seconds: float) -> Dict[str, Any]:
    """One traced fresh-process run of ``workload``; its kept counters."""
    with tempfile.TemporaryDirectory() as tmp:
        detail = os.path.join(tmp, "detail.json")
        subprocess.run(
            [sys.executable, os.path.join(REPO, "bench", "run.py"),
             "--workload", workload, "--seed", str(SEED),
             "--seconds", str(seconds), "--trace", "1", "--detail", detail],
            cwd=REPO, check=True, stdout=subprocess.DEVNULL)
        with open(detail) as fh:
            run = json.load(fh)
    if not run["correct"] or run["failed"]:
        raise SystemExit(f"{workload}: run not correct: {run['problems']}")
    values = {**run["per_layer"], **run["end_to_end"]}
    kept: Dict[str, Any] = {"sim_digest": run["sim_digest"]}
    for name in (*EXACT, *BANDED):
        kept[name] = values.get(name)
    return kept


def compare(workload: str, want: Dict[str, Any],
            got: Dict[str, Any]) -> List[str]:
    """Human-readable differences between committed and measured."""
    problems = []
    for name in ("sim_digest", *EXACT):
        if want.get(name) != got.get(name):
            problems.append(f"{workload}: {name} {want.get(name)!r} -> "
                            f"{got.get(name)!r} (must be equal)")
    for name, band in BANDED.items():
        base, now = want.get(name), got.get(name)
        if base is None or now is None or abs(now - base) > band * base:
            problems.append(f"{workload}: {name} {base!r} -> {now!r} "
                            f"(allowed ±{band:.0%})")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE")
    mode.add_argument("--check", metavar="FILE")
    parser.add_argument("--workload", action="append",
                        help="only this workload (repeatable; --check only)")
    args = parser.parse_args(argv)

    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]
    names = [w["name"] for w in contract["workloads"]]
    if args.workload:
        unknown = sorted(set(args.workload) - set(names))
        if unknown or args.write:
            parser.error("--workload takes names from BENCHMARK.json and "
                         f"goes with --check (unknown: {unknown})")
        names = [n for n in names if n in args.workload]

    measured = {}
    for name in names:
        measured[name] = measure(name, seconds)
        print(f"{name}: " + ", ".join(
            f"{k}={v if k != 'sim_digest' else v[:12]}"
            for k, v in measured[name].items()), flush=True)

    if args.write:
        with open(args.write, "w") as fh:
            json.dump({"schema": SCHEMA, "seed": SEED, "seconds": seconds,
                       "workloads": measured}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0

    with open(args.check) as fh:
        committed = json.load(fh)
    if (committed.get("schema") != SCHEMA or committed.get("seed") != SEED
            or committed.get("seconds") != seconds):
        print(f"{args.check}: not a {SCHEMA} file for seed {SEED}, "
              f"{seconds} s", file=sys.stderr)
        return 2
    problems: List[str] = []
    for name in names:
        want = committed["workloads"].get(name)
        if want is None:
            problems.append(f"{name}: not in {args.check}")
        else:
            problems.extend(compare(name, want, measured[name]))
    for line in problems:
        print("MOVED " + line, file=sys.stderr)
    if not problems:
        print(f"{len(names)} workloads: every exact counter equal, "
              "calls/work inside its band")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
