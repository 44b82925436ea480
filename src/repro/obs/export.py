"""JSON/CSV exporters with a stable run-manifest schema.

The JSON document written by :func:`export_json` (and by the harness
``--metrics-out`` flag, and by the benchmark suite as ``BENCH_obs.json``)
is the repo's perf-trajectory interchange format.  Its top-level shape
is versioned via ``schema``; additive changes bump the minor number,
breaking changes the major.  A golden-file test pins the structure.

Schema (``repro.obs/1.0``)::

    {
      "schema": "repro.obs/1.0",
      "manifest": {"experiment": ..., "seed": ..., "protocols": [...],
                   "config": {...}, "extra": {...}},
      "runs": [
        {"name": ..., "labels": {...},
         "metrics": {<family>: {"kind", "help", "series": [...]}},
         "series": {<series-name>: {"times": [...], "values": [...]}},
         "spans": [...]}
      ]
    }

``metrics`` is a point-in-time :meth:`MetricsRegistry.snapshot`;
``series`` holds time-sampled trajectories (e.g. per-protocol
``state_bytes`` over simulated time) collected by
:mod:`repro.obs.runlog`; ``spans`` is optional completed-span data.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional

SCHEMA = "repro.obs/1.0"


def make_manifest(experiment: str = "", seed: Optional[int] = None,
                  protocols: Iterable[str] = (),
                  config: Optional[Mapping[str, Any]] = None,
                  **extra: Any) -> Dict[str, Any]:
    """Build the run manifest block of the export document."""
    return {
        "experiment": experiment,
        "seed": seed,
        "protocols": list(protocols),
        "config": dict(config) if config else {},
        "extra": dict(extra),
    }


def make_document(manifest: Mapping[str, Any],
                  runs: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Assemble the versioned top-level export document."""
    return {"schema": SCHEMA, "manifest": dict(manifest), "runs": list(runs)}


def run_entry(name: str, labels: Optional[Mapping[str, str]] = None,
              metrics: Optional[Mapping[str, Any]] = None,
              series: Optional[Mapping[str, Any]] = None,
              spans: Optional[List[Dict[str, Any]]] = None) -> Dict[str, Any]:
    """One per-run record (typically one protocol under one workload)."""
    return {
        "name": name,
        "labels": dict(labels) if labels else {},
        "metrics": dict(metrics) if metrics else {},
        "series": dict(series) if series else {},
        "spans": list(spans) if spans else [],
    }


def export_json(document: Mapping[str, Any], path: str) -> None:
    """Write the document to ``path`` as deterministic, sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dumps_json(document: Mapping[str, Any]) -> str:
    """The export document as a deterministic JSON string."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def metrics_to_csv_rows(document: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Flatten a document's point-in-time metrics into CSV-able rows."""
    rows: List[Dict[str, Any]] = []
    for run in document.get("runs", []):
        for fam_name, fam in sorted(run.get("metrics", {}).items()):
            for entry in fam.get("series", []):
                label_str = ",".join(f"{k}={v}" for k, v in
                                     sorted(entry.get("labels", {}).items()))
                value = entry.get("value", entry.get("sum", 0.0))
                rows.append({"run": run["name"], "metric": fam_name,
                             "kind": fam.get("kind", ""),
                             "labels": label_str, "value": value})
    return rows


def dumps_csv(document: Mapping[str, Any]) -> str:
    """The flattened metric rows as a CSV string."""
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["run", "metric", "kind", "labels", "value"])
    writer.writeheader()
    writer.writerows(metrics_to_csv_rows(document))
    return buf.getvalue()
