"""Lint-engine smoke benchmark: full-repo analysis.

``lint_full_repo`` is a cold run over ``src/`` (parse + per-file rules
+ project index, call graph and project rules), in files/sec.

Usage::

    python benchmarks/lint_smoke.py                       # smoke gate
    python benchmarks/lint_smoke.py --update-baseline BENCH_perf.json

The smoke gate exits 1 when the engine reports findings on its own
tree or errors on any file.  ``--update-baseline`` measures just the
lint row and merges it into the committed perf baseline; the CI
``perf-smoke`` job then tracks it like every other bench (the row is
registered in ``perf_smoke.BENCHES``).

Wall-clock timing is the point here, so like the other harnesses this
file lives outside the simulated-time lint scope.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, "src")  # runnable from the repo root without PYTHONPATH

REPO_ROOT = Path(__file__).resolve().parents[1]


def _config():
    from repro.lint import load_config
    return load_config(explicit=REPO_ROOT / "pyproject.toml")


def _spin_lint_cold():
    """One full lint of ``src/``."""
    from repro.lint import lint_paths
    return lint_paths([REPO_ROOT / "src"], config=_config())


def smoke(reps: int) -> int:
    """Self-host cleanly and time the cold run."""
    from perf_smoke import _best_time

    result = _spin_lint_cold()
    if result.errors or result.violations:
        for err in result.errors:
            print(f"  error: {err}")
        for v in result.violations:
            print(f"  {v.format()}")
        print("lint-smoke: FAIL (engine does not self-host cleanly)")
        return 1
    cold = _best_time(_spin_lint_cold, reps)
    files = result.files_checked
    print(f"  cold: {cold:.3f}s ({files / cold:,.0f} files/s)")
    print(f"lint-smoke: ok ({files} files, 0 findings)")
    return 0


def update_baseline(path: Path, reps: int) -> int:
    """Measure the lint row and merge it into ``BENCH_perf.json``."""
    from perf_smoke import _best_time, calibrate

    doc = json.loads(path.read_text())
    cal = calibrate()
    files = _spin_lint_cold().files_checked
    # Units match perf_smoke.BENCHES: one unit per full-repo run, so
    # --check recomputes comparable normalized numbers.
    best = _best_time(_spin_lint_cold, reps)
    ops = 1.0 / best
    doc["benches"]["lint_full_repo"] = {
        "best_s": best,
        "ops_per_sec": ops,
        "normalized": ops / cal,
    }
    print(f"  lint_full_repo: {best:.4f}s ({files / best:,.0f} files/s), "
          f"normalized {ops / cal:.6f}")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"baseline row merged into {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/lint_smoke.py",
        description="Full-repo lint benchmark.")
    parser.add_argument("--update-baseline", metavar="FILE", default=None,
                        help="merge the lint_full_repo row into the "
                             "committed perf baseline document")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per measurement; best time wins "
                             "(default 3)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.update_baseline:
        return update_baseline(Path(args.update_baseline), args.reps)
    return smoke(args.reps)


if __name__ == "__main__":
    sys.exit(main())
