"""Lint-engine smoke benchmark: full-repo analysis.

``lint_full_repo`` is a cold run over ``src/`` (parse + per-file rules),
in files/sec.

Usage::

    python benchmarks/lint_smoke.py                       # smoke gate

The smoke gate exits 1 when the engine reports findings on its own
tree or errors on any file.  The timed row is registered in
``perf_smoke.BENCHES``; re-baseline it with
``python benchmarks/perf_smoke.py --write BENCH_perf.json --only
lint_full_repo``, which stores the calibration it divided by.

Wall-clock timing is the point here, so like the other harnesses this
file lives outside the simulated-time lint scope.
"""

from __future__ import annotations

import argparse
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/lint_smoke.py",
        description="Full-repo lint benchmark.")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per measurement; best time wins "
                             "(default 3)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    return smoke(args.reps)


if __name__ == "__main__":
    sys.exit(main())
