"""``run.py --compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric) with each side's median and
min-max, and a verdict from the metric's bound in ``spec.py``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's own spread (max - min) exceeds the bound,
  so the medians cannot be told apart, unless every run of B reads better
  than every run of A (then it is not worse) or worse than every run of A by
  more than the bound (then it is);
* ``unchanged`` — otherwise.  It means "not worse": this tool gates
  regressions, it does not certify gains (README.md says how to claim one).

Sim metrics are exact, so their spread is 0 and any difference is real.
"""

from __future__ import annotations

import json
from statistics import median
from typing import Any, Dict, List, Optional

import spec


def verdict(metric: spec.EndToEnd, a: List[float], b: List[float]) -> str:
    """Judge one metric on one workload from each side's run values."""
    sign = 1.0 if metric.better == "lower" else -1.0
    a_bad = [sign * v for v in a]        # larger = worse, on both sides
    b_bad = [sign * v for v in b]
    med_a, med_b = median(a_bad), median(b_bad)
    allowed = spec.allowance(metric, med_a)
    if min(b_bad) > max(a_bad) and med_b - med_a > allowed:
        return "worse"
    if max(b_bad) < min(a_bad):
        return "unchanged"
    if max(max(a_bad) - min(a_bad), max(b_bad) - min(b_bad)) > allowed:
        return "unresolved"
    return "worse" if med_b - med_a > allowed else "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """All rows for two result sets written by ``run.py --all``."""
    rows = []
    for name in spec.ALL_WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric in spec.END_TO_END:
            va = _values(wa, metric.name)
            vb = _values(wb, metric.name)
            if not va or not vb:
                continue        # null on this workload
            rows.append({"workload": name, "metric": metric.name,
                         "kind": metric.kind, "unit": metric.unit,
                         "a": va, "b": vb,
                         "verdict": verdict(metric, va, vb)})
        if wa["sim_digest"] != wb["sim_digest"]:
            rows.append({"workload": name, "metric": "sim_digest",
                         "kind": "sim", "unit": "", "a": [], "b": [],
                         "verdict": "differs"})
    return rows


def _values(entry: Dict[str, Any], metric: str) -> List[float]:
    cell: Optional[Dict[str, Any]] = entry["end_to_end"].get(metric)
    return [v for v in (cell or {}).get("values", ()) if v is not None]


def _side(values: List[float]) -> str:
    if not values:
        return f"{'':>36s}"
    return (f"{median(values):>12.6g} "
            f"[{min(values):>10.6g} ..{max(values):>10.6g}]")


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    rows = compare(a, b)
    print(f"{'workload':13s} {'metric':18s} {'A median [min .. max]':>36s} "
          f"{'B median [min .. max]':>36s}  verdict")
    for row in rows:
        print(f"{row['workload']:13s} {row['metric']:18s} "
              f"{_side(row['a'])} {_side(row['b'])}  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    print(f"\n{len(rows)} rows: {len(bad)} worse or unresolved")
    return 1 if bad else 0
