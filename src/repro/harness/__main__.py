"""Command-line experiment runner.

Usage::

    python -m repro.harness e2           # one experiment (e1-e10, a1-a4)
    python -m repro.harness e4 e7        # several
    python -m repro.harness all          # everything (minutes)
    python -m repro.harness all --seed 7
    python -m repro.harness e7 --metrics-out bench.json
    python -m repro.harness --list    # enumerate the registry
    python -m repro.harness e-scale --clients 1000000
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
from typing import Any

from repro.analysis.report import Table
from repro.harness import registry
# Importing these modules populates the registry via @experiment.
from repro.harness import ablations as _ablations  # noqa: F401
from repro.harness import adversary as _adversary  # noqa: F401
from repro.harness import cache as _cache  # noqa: F401
from repro.harness import experiments as _experiments  # noqa: F401
from repro.harness import intent as _intent  # noqa: F401
from repro.harness import scale as _scale  # noqa: F401
from repro.harness.common import wall_timer
from repro.harness.parallel import run_experiment_task, run_ordered
from repro.obs import runlog

#: name -> callable over every registered experiment (used by parallel
#: workers to resolve ids in the child process).
EXPERIMENTS = registry.view()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's figures/claims (E1-E10).")
    parser.add_argument("experiments", nargs="*",
                        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="enumerate the experiment registry and exit")
    parser.add_argument("--seed", type=int, default=0,
                        help="root random seed (default 0)")
    parser.add_argument("--markdown", metavar="FILE", default=None,
                        help="also write the tables to FILE as markdown")
    parser.add_argument("--clients", type=int, default=None,
                        help="client-population cap, forwarded to the "
                             "experiments that take one (e.g. e-scale)")
    parser.add_argument("--n-servers", type=int, default=None,
                        help="metadata-cluster size, forwarded to the "
                             "experiments that take one (e.g. e11)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write a repro.obs/1.0 metrics document "
                             "(registry snapshots, overhead series, spans) "
                             "covering every system the experiments build")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for running several "
                             "experiments concurrently (default 1); output "
                             "order matches the requested order")
    args = parser.parse_args(argv)

    if args.list:
        for spec in registry.iter_specs():
            tag = "  [heavy: excluded from 'all']" if spec.heavy else ""
            print(f"{spec.name:10s} {spec.summary}{tag}")
        return 0
    if not args.experiments:
        parser.error("no experiments requested (try --list)")

    names = (list(registry.runnable_by_default())
             if "all" in args.experiments else args.experiments)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.jobs > 1 and args.metrics_out:
        parser.error("--jobs > 1 cannot aggregate --metrics-out documents; "
                     "run metrics collection with --jobs 1")
    if args.jobs > 1:
        return _run_parallel(names, args)

    collector = None
    scope: Any = contextlib.nullcontext()
    if args.metrics_out:
        collector = runlog.RunCollector(experiment=" ".join(names),
                                        seed=args.seed)
        scope = runlog.use(collector)

    md_chunks = []
    with scope:
        for name in names:
            elapsed = wall_timer()
            fn = EXPERIMENTS[name]
            kwargs = {"seed": args.seed}
            params = inspect.signature(fn).parameters
            if args.n_servers is not None and "n_servers" in params:
                kwargs["n_servers"] = args.n_servers
            if args.clients is not None and "clients" in params:
                kwargs["clients"] = args.clients
            result = fn(**kwargs)
            tables = result if isinstance(result, list) else [result]
            for t in tables:
                print()
                print(t)
                md_chunks.append(table_to_markdown(t))
            print(f"\n[{name} completed in {elapsed():.1f}s wall]")
    if collector is not None:
        collector.export(args.metrics_out)
        print(f"\n[metrics written to {args.metrics_out}]")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(f"# Experiment tables (seed {args.seed})\n\n")
            fh.write("\n\n".join(md_chunks))
            fh.write("\n")
        print(f"\n[markdown written to {args.markdown}]")
    return 0


def _run_parallel(names, args) -> int:
    """Fan the requested experiments out over a process pool."""
    kwargs = {"seed": args.seed}
    if args.n_servers is not None:
        kwargs["n_servers"] = args.n_servers
    if args.clients is not None:
        kwargs["clients"] = args.clients
    tasks = [(name, kwargs) for name in names]
    outcomes = run_ordered(run_experiment_task, tasks, args.jobs)
    md_chunks = []
    for outcome in outcomes:
        for text, md in zip(outcome.table_texts, outcome.markdown_chunks):
            print()
            print(text)
            md_chunks.append(md)
        print(f"\n[{outcome.name} completed in {outcome.elapsed_s:.1f}s wall]")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(f"# Experiment tables (seed {args.seed})\n\n")
            fh.write("\n\n".join(md_chunks))
            fh.write("\n")
        print(f"\n[markdown written to {args.markdown}]")
    return 0


def table_to_markdown(table: Table) -> str:
    """Render a result table as GitHub-flavoured markdown."""
    def cell(v) -> str:
        return str(v).replace("|", "\\|")

    lines = [f"## {table.title}", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("|" + "|".join("---" for _ in table.columns) + "|")
    for row in table.rows:
        lines.append("| " + " | ".join(cell(c) for c in row) + " |")
    for note in table.notes:
        lines.append(f"\n*{note}*")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
