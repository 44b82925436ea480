"""CLI: ``python -m repro.lint <paths>``.

Exit codes: 0 clean, 1 violations found (or, with ``--diff``, *new*
violations not in the baseline), 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.config import load_config
from repro.lint.engine import LintResult, lint_paths
from repro.lint.report import render_json, render_rule_list, render_text


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Flow-aware protocol static analysis for the repro tree "
                    "(rules RPL001-RPL013; see --list-rules).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--config", metavar="PYPROJECT", default=None,
                        help="explicit pyproject.toml holding [tool.repro-lint] "
                             "(default: walk up from the first path)")
    parser.add_argument("--select", metavar="CODES", default=None,
                        help="comma-separated rule codes to run "
                             "(default: config, then all)")
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--statistics", action="store_true",
                        help="append per-rule violation counts to the text report")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="baseline file of accepted finding fingerprints")
    parser.add_argument("--diff", action="store_true",
                        help="with --baseline: report and fail only on "
                             "findings absent from the baseline")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="record the current findings as the new baseline "
                             "and exit 0")
    parser.add_argument("--cache", metavar="FILE", default=None,
                        help="content-hash incremental cache file "
                             "(safe to delete at any time)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every registered rule and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0
    if args.diff and not args.baseline:
        print("error: --diff requires --baseline", file=sys.stderr)
        return 2

    targets = [Path(p) for p in args.paths]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    config = load_config(
        explicit=Path(args.config) if args.config else None,
        start=targets[0].resolve() if targets else None)
    select = ([c.strip() for c in args.select.split(",") if c.strip()]
              if args.select else None)
    try:
        result = lint_paths(
            targets, config=config, select=select,
            cache_path=Path(args.cache) if args.cache else None)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.write_baseline:
        from repro.lint.baseline import write_baseline
        write_baseline(Path(args.write_baseline), result, config.root)
        print(f"baseline: recorded {len(result.violations)} finding(s) "
              f"in {args.write_baseline}")
        return 0 if not result.errors else 2

    report = result
    if args.baseline and args.diff:
        from repro.lint.baseline import Baseline
        try:
            baseline = Baseline.load(Path(args.baseline))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = LintResult(
            violations=baseline.new_findings(result, config.root),
            files_checked=result.files_checked,
            errors=list(result.errors))

    if args.format == "json":
        text = render_json(report)
    elif args.format == "sarif":
        from repro.lint.sarif import render_sarif
        text = render_sarif(report)
    else:
        text = render_text(report, statistics=args.statistics)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    if report.errors:
        return 2
    return 0 if not report.violations else 1


if __name__ == "__main__":
    sys.exit(main())
