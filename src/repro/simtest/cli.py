"""Command-line front door: ``python -m repro.simtest``.

Modes (mutually exclusive):

- default (``--seed N --steps K``): generate one schedule, run it; on
  an oracle violation, shrink the schedule to a minimal repro and write
  a replayable failure artifact;
- ``--replay ARTIFACT``: re-run a failure artifact's schedule and
  verify the trace hash reproduces bit-identically (with
  ``--break-mode``: run it sabotaged instead — a regression artifact's
  knock-out — and exit 1 when the oracles catch it);
- ``--corpus``: replay every pinned regression seed (clean + identical
  hash required);
- ``--batch N``: run N fresh schedules with seeds drawn from
  ``--batch-seed`` (printed, so any CI batch is replayable);
- ``--update-corpus``: re-bless the pinned corpus hashes.

Exit codes follow the repo convention (``repro.lint``): 0 clean,
1 violations / reproduction mismatch, 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from repro.analysis.timeline import render_lease_timeline
from repro.harness.parallel import run_ordered
from repro.obs.artifact import (load_artifact, make_failure_artifact,
                                write_artifact)
from repro.sim.rng import RandomStreams
from repro.simtest.corpus import bless_corpus, replay_corpus
from repro.simtest.parallel import run_batch_task
from repro.simtest.runner import (BREAK_MODES, SimRunResult, run_schedule)
from repro.simtest.schedule import Schedule, generate_schedule
from repro.simtest.shrink import shrink_schedule

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``python -m repro.simtest``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.simtest",
        description="Deterministic schedule fuzzing with invariant oracles.")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for schedule generation (default 0)")
    parser.add_argument("--steps", type=int, default=20,
                        help="primary fault events to draw (default 20)")
    parser.add_argument("--cache-nodes", type=int, default=0, metavar="N",
                        help="run with N in-network metadata cache nodes "
                             "(adds cache crash/flush fault kinds and the "
                             "stale-entry oracle's traffic; default 0)")
    parser.add_argument("--adversaries", type=int, default=0, metavar="N",
                        help="possess N clients with Byzantine behaviors "
                             "drawn from the adversary pool (ignore-expiry, "
                             "suppress-release, forged SAN writes, stale "
                             "replays, clock stretch; default 0)")
    parser.add_argument("--replay", metavar="ARTIFACT",
                        help="re-run a failure artifact and verify its "
                             "trace hash reproduces")
    parser.add_argument("--corpus", action="store_true",
                        help="replay the pinned regression-seed corpus")
    parser.add_argument("--batch", type=int, metavar="N",
                        help="run N fresh schedules (seeds derived from "
                             "--batch-seed)")
    parser.add_argument("--batch-seed", type=int, default=None,
                        help="base seed for --batch (default: --seed); "
                             "printed so the batch is replayable")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for --batch (default 1); "
                             "seeds are drawn up front and outputs merged "
                             "in seed order, so results are identical for "
                             "any N")
    parser.add_argument("--update-corpus", action="store_true",
                        help="re-bless the pinned corpus trace hashes")
    parser.add_argument("--break-mode", default="",
                        choices=[""] + sorted(BREAK_MODES),
                        help="deliberately sabotage the protocol (oracle "
                             "self-test)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for failure artifacts (default .)")
    parser.add_argument("--shrink-runs", type=int, default=200,
                        help="max schedule executions the shrinker may "
                             "spend (default 200)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimization on failure")
    return parser


def _print_violations(result: SimRunResult) -> None:
    for v in result.violations:
        print(f"  VIOLATION [{v.oracle}] t={v.time:.3f} node={v.node}: "
              f"{v.message}")


def _fuzz_once(args: argparse.Namespace) -> int:
    schedule = generate_schedule(args.seed, args.steps,
                                 break_mode=args.break_mode,
                                 cache_nodes=getattr(args, "cache_nodes", 0),
                                 adversaries=getattr(args, "adversaries", 0))
    print(f"seed={args.seed} steps={len(schedule.steps)} "
          f"horizon={schedule.horizon:g}s clients={schedule.n_clients} "
          f"epsilon={schedule.epsilon:.4f}"
          + (f" cache_nodes={schedule.cache_nodes}"
             if schedule.cache_nodes else "")
          + (f" adversaries={schedule.adversaries}"
             if schedule.adversaries else "")
          + (f" break_mode={schedule.break_mode}"
             if schedule.break_mode else ""))
    result = run_schedule(schedule)
    print(f"ops={result.ops_succeeded} trace_hash={result.trace_hash[:16]}…")
    if result.ok:
        print("clean: no oracle violations")
        return EXIT_CLEAN
    print(f"{len(result.violations)} violation(s) from "
          f"{result.oracle_names()}")
    _print_violations(result)

    minimized_schedule = schedule
    minimized_result = result
    if not args.no_shrink and schedule.steps:
        shrunk = shrink_schedule(schedule, result, max_runs=args.shrink_runs)
        minimized_schedule = shrunk.schedule
        minimized_result = shrunk.result
        print(f"shrunk {len(schedule.steps)} -> "
              f"{len(minimized_schedule.steps)} fault step(s) in "
              f"{shrunk.runs} run(s)"
              + ("" if shrunk.minimal else " (budget hit before 1-minimal)"))

    # Re-run the minimized schedule keeping the system for diagnostics.
    final = run_schedule(minimized_schedule, keep_system=True)
    assert final.system is not None
    timeline = render_lease_timeline(final.system)
    artifact = make_failure_artifact(
        schedule=minimized_schedule.to_dict(),
        violations=[v.to_dict() for v in final.violations],
        trace_hash=final.trace_hash,
        timeline=timeline,
        obs_document={"trace_kinds": final.system.trace.kinds()},
        generator_seed=args.seed, generator_steps=args.steps)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"simtest-failure-seed{args.seed}.json")
    write_artifact(artifact, path)
    print(f"failure artifact: {path}")
    print(f"replay with: python -m repro.simtest --replay {path}")
    return EXIT_VIOLATIONS


def _replay(path: str, break_mode: str = "") -> int:
    try:
        doc = load_artifact(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    schedule = Schedule.from_dict(doc["schedule"])
    if break_mode:
        schedule = dataclasses.replace(schedule, break_mode=break_mode)
    result = run_schedule(schedule)
    expected = doc.get("trace_hash", "")
    print(f"replayed seed={schedule.seed} "
          f"steps={len(schedule.steps)}: trace_hash={result.trace_hash[:16]}…")
    _print_violations(result)
    if break_mode:
        print(f"knock-out {break_mode}: oracles fired: {result.oracle_names()}")
        return EXIT_CLEAN if result.ok else EXIT_VIOLATIONS
    if result.trace_hash != expected:
        print(f"NOT REPRODUCED: trace hash mismatch "
              f"(expected {expected[:16]}…)")
        return EXIT_VIOLATIONS
    print("reproduced: trace hash identical"
          + ("" if result.ok else f"; oracles fired: "
                                  f"{result.oracle_names()}"))
    return EXIT_CLEAN


def _corpus() -> int:
    outcomes = replay_corpus()
    if not outcomes:
        print("corpus is empty (bless it with --update-corpus)")
        return EXIT_USAGE
    bad = 0
    for outcome in outcomes:
        status = "ok"
        if not outcome.hash_matches:
            status = (f"HASH MISMATCH (expected "
                      f"{outcome.entry.trace_hash[:16]}…, got "
                      f"{outcome.result.trace_hash[:16]}…)")
        elif not outcome.result.ok:
            status = f"VIOLATIONS {outcome.result.oracle_names()}"
        print(f"  seed={outcome.entry.seed} "
              f"steps={outcome.entry.n_steps}: {status}")
        if not outcome.ok:
            bad += 1
            _print_violations(outcome.result)
    print(f"{len(outcomes) - bad}/{len(outcomes)} corpus entries clean")
    return EXIT_CLEAN if bad == 0 else EXIT_VIOLATIONS


def _batch(args: argparse.Namespace) -> int:
    base = args.batch_seed if args.batch_seed is not None else args.seed
    print(f"batch of {args.batch} run(s), batch seed {base} "
          f"(replay any failure with --seed <printed seed>)")
    # The full seed list is drawn up front from the batch stream, so the
    # schedules are identical regardless of --jobs; workers only change
    # who executes them.
    rng = RandomStreams(base).get("simtest.batch")
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(args.batch)]
    arg_map = dict(vars(args))
    tasks = [(i, seed, arg_map) for i, seed in enumerate(seeds)]
    outcomes = run_ordered(run_batch_task, tasks, args.jobs)
    failures = 0
    for i, outcome in enumerate(outcomes):
        print(f"-- batch run {i + 1}/{args.batch}: seed={outcome.seed}")
        sys.stdout.write(outcome.output)
        if outcome.exit_code != EXIT_CLEAN:
            failures += 1
    print(f"batch done: {args.batch - failures}/{args.batch} clean")
    return EXIT_CLEAN if failures == 0 else EXIT_VIOLATIONS


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the selected mode."""
    parser = build_parser()
    args = parser.parse_args(argv)
    modes = [bool(args.replay), args.corpus, args.batch is not None,
             args.update_corpus]
    if sum(modes) > 1:
        parser.error("--replay/--corpus/--batch/--update-corpus are "
                     "mutually exclusive")  # exits 2
    if args.steps < 0:
        parser.error("--steps must be >= 0")
    if args.cache_nodes < 0:
        parser.error("--cache-nodes must be >= 0")
    if args.adversaries < 0:
        parser.error("--adversaries must be >= 0")
    if args.batch is not None and args.batch < 1:
        parser.error("--batch must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.jobs > 1 and args.batch is None:
        parser.error("--jobs requires --batch")
    if args.replay:
        return _replay(args.replay, args.break_mode)
    if args.corpus:
        return _corpus()
    if args.update_corpus:
        entries = bless_corpus()
        for e in entries:
            print(f"  blessed seed={e.seed} steps={e.n_steps} "
                  f"hash={e.trace_hash[:16]}…")
        return EXIT_CLEAN
    if args.batch is not None:
        return _batch(args)
    return _fuzz_once(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
