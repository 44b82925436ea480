"""CLI: ``python -m repro.lint <paths>``.

Exit codes: 0 clean, 1 violations found, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.config import load_config
from repro.lint.engine import lint_paths
from repro.lint.report import render_json, render_rule_list, render_text


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Protocol static analysis for the repro tree "
                    "(see --list-rules for the rules).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--config", metavar="PYPROJECT", default=None,
                        help="explicit pyproject.toml holding [tool.repro-lint] "
                             "(default: walk up from the first path)")
    parser.add_argument("--select", metavar="CODES", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--statistics", action="store_true",
                        help="append per-rule violation counts to the text report")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every registered rule and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_list())
        return 0

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
        result = lint_paths(targets, config=config, select=select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = render_json(result)
    else:
        text = render_text(result, statistics=args.statistics)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    if result.errors:
        return 2
    return 0 if not result.violations else 1


if __name__ == "__main__":
    sys.exit(main())
