"""End-to-end benchmark of the Storage Tank reproduction.  See README.md.

One measured run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 bench/run.py --workload steady_rw --seed 0 --seconds 12 --trace 0

prints every metric by name with its unit and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of an untraced window; ``--trace 1`` runs the
window twice, untraced then under the profiler, and reports the per-layer
metrics.

Everything at once, each run in a fresh process, one after another::

    python3 bench/run.py --all [--seed N] [--reps R] [--out FILE] [--quick]

and ``--compare A.json B.json`` / ``--probe shared_rw`` / ``--spec``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

# The program is single-threaded; keep numpy's libraries that way too.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import spec  # noqa: E402  (light: no program import)

SCHEMA = "repro.bench/1"
QUICK_DIVISOR = 20
SETUP_REPEATS = 3


def calibrate() -> float:
    """Iterations per second of a fixed pure-Python loop.

    The same loop ``benchmarks/perf_smoke.py`` calibrates with, copied so
    the benchmark imports nothing outside its directory.  Recorded with
    every result to tell a slow box from a slow program; never used to
    rescale a number.
    """
    def loop() -> int:
        acc = 0
        out = []
        append = out.append
        for i in range(200_000):
            acc += i & 7
            if not i % 64:
                append(i)
        return acc + len(out)

    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return 200_000 / best


def environment() -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "calibration_ops_per_s": calibrate()}


# ---------------------------------------------------------------------------
# one measured run, in this process
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> Dict[str, Any]:
    """Set up, run the window (twice when tracing), audit; returns the
    full record of the run."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"bench: no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import layers
    from shim import ConfigShim
    from workloads import WORKLOADS
    import_s = time.perf_counter() - _PROCESS_START

    scale = seconds / spec.RUN_SECONDS / (QUICK_DIVISOR if quick else 1)
    shim = ConfigShim()
    cls = WORKLOADS[workload]

    def set_up() -> Any:
        instance = cls(seed, scale, shim)
        instance.prepare()
        return instance

    # Set-up is a few hundred ms, so it is done several times and the
    # median reported; the window runs on the last one.
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        wl = None
        gc.collect()
        start = time.perf_counter()
        wl = set_up()
        prepare_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(prepare_s)

    start = time.perf_counter()
    wl.window()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = wl.finish(audit=True)      # audits: after the window and RSS

    problems = list(result.problems)
    per_layer: Dict[str, Optional[float]] = dict(result.counters)
    per_layer["sim.events_per_wall_s"] = (
        result.counters.get("sim.events", 0) / wall_s)
    if trace:
        wl = None
        gc.collect()
        wl = set_up()
        start = time.perf_counter()
        entries = layers.profile_window(wl.window)
        traced_wall_s = time.perf_counter() - start
        traced = wl.finish(audit=False)
        if traced.digest != result.digest:
            problems.append("the traced run's simulated results differ from "
                            "the untraced run's: the tracer perturbed it")
        table = layers.attribute(entries)
        for layer, row in table.items():
            for field, value in row.items():
                per_layer[f"{layer}.{field}"] = value
        per_layer["trace.overhead_x"] = traced_wall_s / wall_s
        # Python-level calls are an exact count: a noise-free proxy of
        # interpreter work on a box whose wall clock is not.
        per_layer["trace.calls_per_work"] = (
            sum(e.callcount for e in entries) / result.attempted)
        per_layer["trace.window_s"] = traced_wall_s
        if "core.build_s" not in per_layer:
            # Built inside the program's own loop (fault_fuzz): read the
            # profiler's inclusive time, in traced seconds.
            per_layer["core.build_s"] = layers.cumulative_seconds(
                entries, "core/system.py", "build_system")

    end_to_end: Dict[str, Optional[float]] = {
        "setup_s": setup_s,
        "work_per_wall_s": result.attempted / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "work_fail_ratio": result.failed / result.attempted,
        **result.sim,
    }
    return {
        "schema": SCHEMA, "workload": workload, "unit": cls.unit,
        "seed": seed, "seconds": seconds, "scale": scale, "quick": quick,
        "trace": int(trace), "environment": environment(),
        "config_dropped": shim.dropped,
        "correct": not problems, "problems": problems,
        "attempted": result.attempted, "failed": result.failed,
        "window_s": wall_s, "import_s": import_s, "prepare_s": prepare_s,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "sim_digest": result.digest, "notes": result.notes,
    }


def contract_line(record: Dict[str, Any]) -> Dict[str, Any]:
    """The last-line JSON object of one measured run."""
    if record["trace"]:
        values = record["end_to_end"] | record["per_layer"]
        rows = [(name, unit, values.get(name))
                for name, unit, _ in spec.per_layer_rows()]
    else:
        rows = [(name, spec.END_TO_END_BY_NAME[name].unit,
                 record["end_to_end"][name])
                for name in spec.CONTRACT_END_TO_END]
    # A metric that does not exist on this workload reads 0 (per-layer
    # metrics only; every contract end-to-end metric exists everywhere).
    metrics = {name: {"value": 0 if value is None else value, "unit": unit}
               for name, unit, value in rows}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: Dict[str, Any]) -> None:
    """Every metric of one run by name with its unit, then its findings."""
    print(f"# {record['workload']} seed={record['seed']} "
          f"scale={record['scale']:g} trace={record['trace']} "
          f"window={record['window_s']:.3f}s unit='{record['unit']}'")
    for m in spec.END_TO_END:
        print(f"{m.name:34s} {_fmt(record['end_to_end'].get(m.name)):>16s} "
              f"{m.unit:6s} {m.kind}")
    print_layers(record["end_to_end"] | record["per_layer"], record)
    for problem in record["problems"]:
        print("INCORRECT:", problem)


def print_layers(values: Dict[str, Any], source: Dict[str, Any]) -> None:
    """The per-layer counters and layer rows present in ``values``, then
    the dropped config fields and findings recorded in ``source``."""
    for name, unit, _ in [spec.SAMPLES, *spec.COUNTERS]:
        if name in values:
            print(f"{name:34s} {_fmt(values[name]):>16s} {unit}")
    for layer in spec.LAYERS:
        if f"{layer}.self_s" in values:
            row = " ".join(f"{field}={_fmt(values[f'{layer}.{field}'])}"
                           for field, _, _ in spec.LAYER_FIELDS)
            print(f"{layer:34s} {row}")
    if source["config_dropped"]:
        print("config_dropped:", ", ".join(source["config_dropped"]))
    for key in ("violations", "lost_updates"):
        if source["notes"].get(key):
            print(f"finding ({key}):", source["notes"][key])


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# --all: every workload, fresh processes, one after another
# ---------------------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool) -> Dict[str, Any]:
    """One measured run in a fresh process; returns its full record."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        detail = os.path.join(tmp, "record.json")
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--detail", detail] + (["--quick"] if quick else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"bench: {workload} run exited {done.returncode}")
        with open(detail) as fh:
            return json.load(fh)


def run_all(seed: int, reps: int, seconds: float, quick: bool,
            names: List[str]) -> Dict[str, Any]:
    """``reps`` untraced runs and one traced run of each workload."""
    out: Dict[str, Any] = {"schema": SCHEMA, "seed": seed, "reps": reps,
                           "seconds": seconds, "quick": quick,
                           "workloads": {}}
    problems: List[str] = []
    for name in names:
        runs = [run_child(name, seed, seconds, 0, quick)
                for _ in range(reps)]
        traced = run_child(name, seed, seconds, 1, quick)
        digests = {r["sim_digest"] for r in runs} | {traced["sim_digest"]}
        if len(digests) != 1:
            problems.append(f"{name}: simulated results differ between "
                            f"repetitions ({len(digests)} digests)")
        for record in (*runs, traced):
            problems.extend(f"{name}: {p}" for p in record["problems"])
        first = runs[0]
        end_to_end = {}
        for m in spec.END_TO_END:
            values = [r["end_to_end"].get(m.name) for r in runs]
            present = [v for v in values if v is not None]
            end_to_end[m.name] = {
                "kind": m.kind, "unit": m.unit, "values": values,
                "median": statistics.median(present) if present else None}
        # End-to-end numbers never come from the traced run; per-layer
        # counters and the layer table do.
        out["workloads"][name] = {
            "unit": first["unit"], "attempted": first["attempted"],
            "failed": first["failed"],
            "window_s": [r["window_s"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer": traced["per_layer"],
            "config_dropped": first["config_dropped"],
            "sim_digest": first["sim_digest"],
            "notes": first["notes"],
        }
        out["environment"] = first["environment"]
        print_summary(name, out["workloads"][name])
    out["correct"] = not problems
    out["problems"] = problems
    for problem in problems:
        print("INCORRECT:", problem)
    return out


def print_summary(name: str, entry: Dict[str, Any]) -> None:
    windows = ", ".join(f"{w:.2f}" for w in entry["window_s"])
    print(f"\n## {name}  ({entry['attempted']} x {entry['unit']}; "
          f"windows {windows} s)")
    for m in spec.END_TO_END:
        cell = entry["end_to_end"][m.name]
        values = [v for v in cell["values"] if v is not None]
        spread = (f"  [{_fmt(min(values))} .. {_fmt(max(values))}]"
                  if values else "")
        print(f"{m.name:34s} {_fmt(cell['median']):>16s} {m.unit:6s} "
              f"{m.kind}{spread}")
    print_layers(entry["per_layer"], entry)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="size of the fixed work: the sizes in README.md "
                             f"at {spec.RUN_SECONDS}, scaled linearly")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"sizes / {QUICK_DIVISOR} (tests); never a result")
    parser.add_argument("--detail", metavar="FILE",
                        help="also write the run's full record here")
    parser.add_argument("--all", action="store_true",
                        help="every workload: --reps untraced runs + 1 traced")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--only", action="append", choices=spec.ALL_WORKLOADS,
                        help="with --all: just this workload (repeatable)")
    parser.add_argument("--out", metavar="FILE",
                        default=os.path.join(BENCH_DIR, "results",
                                             "latest.json"),
                        help="with --all: where the result set goes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--probe", choices=("shared_rw",))
    parser.add_argument("--spec", action="store_true",
                        help="print the BENCHMARK.json this code implements")
    args = parser.parse_args(argv)

    if args.spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.probe:
        sys.path.insert(0, SRC)
        from workloads import SharedRwProbe
        for key, value in SharedRwProbe.pooled(args.seed).items():
            print(f"{key:28s} {_fmt(value)}")
        return 0
    if args.all:
        if args.reps < 3:
            parser.error("--reps must be at least 3")
        result = run_all(args.seed, args.reps, args.seconds, args.quick,
                         args.only or list(spec.ALL_WORKLOADS))
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print(f"\nwrote {args.out}")
        return 0 if result["correct"] else 1
    if not args.workload:
        parser.error("give --workload, --all, --compare, --probe or --spec")

    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.quick)
    if args.detail:
        with open(args.detail, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print_record(record)
    print(json.dumps(contract_line(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
