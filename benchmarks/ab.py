"""A/B verdict for one performance claim: alternating pairs.

Exports each ref's tree with ``git archive`` into a temporary directory
and runs ``bench/run.py`` of that checkout (nothing under ``bench/`` is
edited), one fresh process per run::

    python benchmarks/ab.py --base REF [--change REF] --workload W \\
        [--seeds 0,7] [--pairs 10]
    python benchmarks/ab.py --base REF [--change REF] --micro ROW \\
        [--pairs 10]

Without ``--change`` the change side is this checkout's tracked files
as they stand, uncommitted edits included, exported the same way from a
``git stash create`` commit (HEAD when nothing is edited), so both
sides run from fresh exports.  For each seed it runs ``--pairs`` pairs;
within a pair the side that runs first alternates.  It reads
``work_per_wall_s`` from each run's last output line and prints, per
seed, both sides' medians and quartiles, the change's win count and the
verdict by the repository's rule: a gain is claimed only when the change
wins at least 9 pairs in 10 *and* its median exceeds the base's by more
than the base's quartile spread (Q3 - Q1, ``statistics.quantiles``'
default method).  For every other end-to-end metric of
``BENCHMARK.json`` it prints both medians, whether the change's is
worse than the base's by more than the metric's bound, and the same
rule's verdict in the metric's own direction (a ``peak_rss_mb`` claim
reads its line; the exit code follows ``work_per_wall_s``).  One JSON record
of the whole comparison is appended to ``BENCH_ab.jsonl`` at the
repository root.

``--micro ROW`` compares one ``BENCH_perf.json`` row instead: each run is
one fresh ``benchmarks/perf_smoke.py --write TMP --only ROW`` in that
side's checkout (TMP a copy of its ``BENCH_perf.json``), read as the
row's raw ``ops_per_sec``, and the same rule gives the verdict.  The
pairs run interleaved on one host, so the calibration that
``normalized`` divides by would only add its own noise; the record
still keeps each run's ``normalized`` and ``calibration_ops_per_sec``.

Exit codes: 0 gain at every seed, 1 no gain at some seed, 2 usage or a
run that failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC = "work_per_wall_s"
RECORDS = os.path.join(REPO, "BENCH_ab.jsonl")
WIN_SHARE = 0.9
#: What ``--micro`` keeps of each run: the metric it decides on, then
#: the calibration and their ratio.
MICRO_FIELDS = ("ops_per_sec", "calibration_ops_per_sec", "normalized")


class RunFailed(Exception):
    """A benchmark run exited non-zero or reported an incorrect result."""


#: Who writes the throw-away commit of :func:`checkout_commit`, so that
#: exporting a checkout needs no configured git identity.
_STASH_IDENTITY = {"GIT_AUTHOR_NAME": "ab", "GIT_AUTHOR_EMAIL": "ab@localhost",
                   "GIT_COMMITTER_NAME": "ab",
                   "GIT_COMMITTER_EMAIL": "ab@localhost"}


def _git(*args: str, repo: str = REPO,
         env: Optional[Dict[str, str]] = None) -> str:
    return subprocess.run(["git", *args], cwd=repo, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def checkout_commit(repo: str = REPO) -> str:
    """A commit whose tree is ``repo``'s tracked files as they stand: a
    dangling ``git stash create`` commit over uncommitted edits, or HEAD
    when there are none.  Untracked files are not in it."""
    return (_git("stash", "create", repo=repo,
                 env={**os.environ, **_STASH_IDENTITY})
            or _git("rev-parse", "HEAD", repo=repo))


def export(sha: str, path: str, repo: str = REPO) -> str:
    """The tree of commit ``sha``, extracted at ``path``."""
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", sha], cwd=repo, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def _run(checkout: str, workload: str, seed: int,
         seconds: float) -> Dict[str, float]:
    """One fresh ``bench/run.py`` process in ``checkout``; its end-to-end
    metrics."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"run failed in {checkout} (exit "
                        f"{proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RunFailed(f"run in {checkout} was not correct: {lines[-1]}")
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def _run_micro(checkout: str, row: str, tmp: str) -> Dict[str, float]:
    """One fresh ``perf_smoke.py --write TMP --only ROW`` in ``checkout``;
    the row's raw rate, the calibration and their ratio."""
    doc = os.path.join(tmp, "perf.json")
    shutil.copyfile(os.path.join(checkout, "BENCH_perf.json"), doc)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "perf_smoke.py"),
         "--write", doc, "--only", row],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"perf_smoke failed in {checkout} (exit "
                        f"{proc.returncode}): {proc.stderr[-2000:]}")
    with open(doc) as fh:
        stored = json.load(fh)["benches"][row]
    return {name: stored[name] for name in MICRO_FIELDS}


def _quartiles(values: List[float]) -> List[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def verdict(base: List[float], change: List[float],
            better: str = "higher") -> Dict[str, Any]:
    """The repository's rule over paired runs; ``delta`` is the change's
    median improvement in the ``better`` direction."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q_base, q_change = _quartiles(base), _quartiles(change)
    spread = q_base[2] - q_base[0]
    delta = sign * (statistics.median(change) - statistics.median(base))
    needed = math.ceil(WIN_SHARE * len(base))
    gain = wins >= needed and delta > spread
    return {"base": base, "change": change,
            "base_median": statistics.median(base),
            "change_median": statistics.median(change),
            "base_quartiles": q_base, "change_quartiles": q_change,
            "base_spread": spread, "delta": delta,
            "delta_share": delta / statistics.median(base),
            "wins": wins, "pairs": len(base), "wins_needed": needed,
            "verdict": "gain" if gain else "no gain"}


def bounded(base: List[float], change: List[float],
            metric: Dict[str, Any]) -> Dict[str, Any]:
    """Both medians of a metric and whether the change's is worse than
    the base's by more than the metric's bound."""
    b, c = statistics.median(base), statistics.median(change)
    worse = (b - c if metric["better"] == "higher" else c - b) / b
    return {"base_median": b, "change_median": c, "worse_share": worse,
            "bound": metric["bound"], "within_bound": worse <= metric["bound"]}


def _print(label: str, v: Dict[str, Any]) -> None:
    def q(values: List[float]) -> str:
        return " / ".join(f"{x:,.4g}" for x in values)
    print(f"{label}: base median {v['base_median']:,.4g} "
          f"(Q1/Q2/Q3 {q(v['base_quartiles'])}), change median "
          f"{v['change_median']:,.4g} (Q1/Q2/Q3 "
          f"{q(v['change_quartiles'])})")
    print(f"  delta {v['delta']:+,.4g} ({v['delta_share']:+.1%}) vs base "
          f"quartile spread {v['base_spread']:,.4g}; change won "
          f"{v['wins']}/{v['pairs']} (needs {v['wins_needed']}) -> "
          f"{v['verdict'].upper()}")
    for name, o in v["others"].items():
        side = "worse" if o["worse_share"] > 0 else "better"
        print(f"  {name}: median {o['base_median']:,.4g} -> "
              f"{o['change_median']:,.4g} ({abs(o['worse_share']):.1%} "
              f"{side}; bound {o['bound']:.0%} worse: "
              f"{'within' if o['within_bound'] else 'PAST'}); improved "
              f"{o['wins']}/{o['pairs']}, delta {o['delta']:+,.4g} vs "
              f"spread {o['base_spread']:,.4g} -> {o['verdict'].upper()}")
    sys.stdout.flush()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, metavar="REF")
    parser.add_argument("--change", metavar="REF",
                        help="default: this checkout's tracked files, "
                             "uncommitted edits included")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--micro", metavar="ROW",
                      help="a BENCH_perf.json row, timed by perf_smoke.py")
    parser.add_argument("--seeds", default="0,7",
                        help="comma-separated, with --workload (default 0,7)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if args.pairs < 2 or not seeds:
        parser.error("need --pairs >= 2 and at least one seed")
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]
    if args.micro:
        metric, groups, others = MICRO_FIELDS[0], {args.micro: 0}, []
    else:
        metric = METRIC
        groups = {f"seed {seed}": seed for seed in seeds}
        others = [m for m in contract["end_to_end"] if m["name"] != METRIC]

    refs = {"base": _git("rev-parse", "--verify", args.base + "^{commit}"),
            "change": (_git("rev-parse", "--verify", args.change + "^{commit}")
                       if args.change else checkout_commit())}
    results: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        checkouts = {side: export(sha, os.path.join(tmp, side))
                     for side, sha in refs.items()}
        try:
            for label, seed in groups.items():
                runs: Dict[str, List[Dict[str, float]]] = {
                    "base": [], "change": []}
                for pair in range(args.pairs):
                    order = (("base", "change") if pair % 2 == 0
                             else ("change", "base"))
                    for side in order:
                        runs[side].append(
                            _run_micro(checkouts[side], args.micro, tmp)
                            if args.micro else
                            _run(checkouts[side], args.workload, seed,
                                 seconds))
                    print(f"  {label} pair {pair + 1}: base "
                          f"{runs['base'][-1][metric]:,.4g}, change "
                          f"{runs['change'][-1][metric]:,.4g}", flush=True)
                column = {side: {name: [r[name] for r in side_runs]
                                 for name in side_runs[0]}
                          for side, side_runs in runs.items()}
                result = verdict(column["base"][metric],
                                 column["change"][metric])
                result["others"] = {
                    m["name"]: {**verdict(column["base"][m["name"]],
                                          column["change"][m["name"]],
                                          m["better"]),
                                **bounded(column["base"][m["name"]],
                                          column["change"][m["name"]], m)}
                    for m in others}
                results[str(seed) if args.workload else args.micro] = result
                _print(label, result)
                if args.micro:
                    result["runs"] = {side: {name: column[side][name]
                                             for name in MICRO_FIELDS[1:]}
                                      for side in column}
                    for name in MICRO_FIELDS[1:]:
                        b, c = (statistics.median(column[side][name])
                                for side in ("base", "change"))
                        print(f"  {name}: median {b:,.4g} -> {c:,.4g}")
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": args.workload, "micro": args.micro, "metric": metric,
        "seconds": None if args.micro else seconds,
        "base": refs["base"],
        "change": (refs["change"] if args.change
                   else "checkout of " + _git("rev-parse", "HEAD")),
        "change_dirty": not args.change and bool(
            _git("status", "--porcelain", "--untracked-files=no")),
        "pairs": args.pairs, "seeds": results}
    with open(RECORDS, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"record appended to {os.path.relpath(RECORDS, REPO)}")
    return 0 if all(v["verdict"] == "gain" for v in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
