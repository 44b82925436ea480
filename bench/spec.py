"""Names, units, directions and bounds of every metric: the one table
``run.py``, ``--compare``, the tests and ``BENCHMARK.json`` are built from.

Two kinds of metric, and every row says which:

* **host** — wall seconds (or memory) of the *simulator*: noisy, reported as
  the median of fresh-process runs;
* **sim** — what the *modelled file system* would do: exact for a fixed seed,
  so it must be bit-equal across repetitions and across the traced run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from layers import LAYERS

RUN_SECONDS = 12

OP_WORKLOADS = ("steady_rw", "intent_write", "meta_cache")
ALL_WORKLOADS = OP_WORKLOADS + ("fault_fuzz", "scale_park")

WORKLOAD_WHY = {
    "steady_rw": "failure-free path: cache hits, opportunistic lease "
                 "renewal, write-back to the SAN; client and trace layers "
                 "carry it, server and locks idle (0.11 txn/op)",
    "intent_write": "write path with intents on and trace recording off: "
                    "range locks, server intent handlers, blockmap, SAN; "
                    "bypasses sim.trace and the cache tier",
    "meta_cache": "metadata reads through the 4-node cache tier, no data "
                  "I/O and no locks: control network, kernel, obs, "
                  "metadata, netcache; SAN must read 0",
    "fault_fuzz": "fuzz schedules through every oracle, what CI pays: "
                  "build-per-schedule, fault injection, oracles, trace "
                  "hash, recovery, lease phases",
    "scale_park": "scale_point at 500k parked clients: population build, "
                  "pooled lease seeding and sweep; set-up is the work and "
                  "peak memory matters",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    kind: str                 # "host" | "sim"
    unit: str
    better: str               # "lower" | "higher"
    bound: float              # share of the baseline median it may worsen by
    slack: float              # ... or this absolute amount, whichever is more
    workloads: Tuple[str, ...]
    reason: str               # why this bound


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "host", "s", "lower", 0.25, 0.25, ALL_WORKLOADS,
             "import + build + populate is a few hundred ms, where one "
             "page-cache miss is 10%; the contract gives it the widest bound"),
    EndToEnd("work_per_wall_s", "host", "1/s", "higher", 0.25, 0.0,
             ALL_WORKLOADS,
             "the reference box itself drifts +-12% for tens of seconds (a "
             "fixed loop shows it), so 12 s runs spread 8-21%; the ceiling"),
    EndToEnd("peak_rss_mb", "host", "MB", "lower", 0.10, 0.0, ALL_WORKLOADS,
             "ru_maxrss moves by allocator arena, about 2% run to run"),
    EndToEnd("work_fail_ratio", "sim", "ratio", "lower", 0.0, 0.0,
             ALL_WORKLOADS,
             "failed or refused units / attempted; exact, so any rise is real"),
    EndToEnd("sim_goodput_ops_s", "sim", "1/s", "higher", 0.02, 0.0,
             OP_WORKLOADS,
             "exact for a seed; 2% leaves room for a re-blessed draw order"),
    EndToEnd("sim_op_p50_ms", "sim", "ms", "lower", 0.05, 0.01, OP_WORKLOADS,
             "median is 0 ms on steady_rw (cache hits), hence the 0.01 ms"),
    EndToEnd("sim_op_p99_ms", "sim", "ms", "lower", 0.05, 0.01, OP_WORKLOADS,
             "a tail percentile over >= 19,200 samples"),
    EndToEnd("ctrl_msgs_per_op", "sim", "count", "lower", 0.02, 0.0,
             OP_WORKLOADS, "the paper's counted cost; exact for a seed"),
    EndToEnd("server_txn_per_op", "sim", "count", "lower", 0.02, 0.0,
             OP_WORKLOADS, "the paper's counted cost; exact for a seed"),
)
END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}

#: Sample count that goes with the two latency percentiles.
SAMPLES = ("sim_op_samples", "count", "higher")

#: Defined on the three op workloads only; ``None`` on the other two, whose
#: drivers belong to the program and share files for writing (README.md).
SIM_OP_METRICS = tuple(m.name for m in END_TO_END
                       if m.workloads == OP_WORKLOADS) + (SAMPLES[0],)

#: The contract (``BENCHMARK.json``) takes one relative bound per metric,
#: wants every end-to-end metric on every workload and never 0.  Only these
#: qualify; the others ride in ``per_layer`` (see README.md).
CONTRACT_END_TO_END = ("work_per_wall_s", "peak_rss_mb", "setup_s")

#: (name, unit, better) of the per-layer counters read from the program's
#: public attributes, as deltas over the untraced window.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_work", "count", "lower"),
    ("sim.events_per_wall_s", "1/s", "higher"),            # host
    ("sim.timer_pool.kernel_arms", "count", "lower"),
    ("sim.trace.records", "count", "lower"),
    ("sim.trace.records_per_work", "count", "lower"),
    ("net.control.datagrams", "count", "lower"),
    ("net.control.dropped", "count", "lower"),
    ("net.control.bytes", "B", "lower"),
    ("net.control.rpcs", "count", "lower"),
    ("net.control.rpcs_per_work", "count", "lower"),
    ("net.san.ios", "count", "lower"),
    ("net.san.bytes_read", "B", "lower"),
    ("net.san.bytes_written", "B", "lower"),
    ("net.san.queue_wait_sim_s", "s", "lower"),
    ("client.cache_hit_ratio", "ratio", "higher"),
    ("client.keepalives", "count", "lower"),
    ("client.ops_rejected", "count", "lower"),
    ("client.pool.materializations", "count", "lower"),
    ("client.pool.bytes_per_client", "B", "lower"),        # host
    ("lease.renewals", "count", "lower"),
    ("lease.expirations", "count", "lower"),
    ("lease.pooled_expired", "count", "higher"),
    ("locks.grants", "count", "lower"),
    ("locks.steals", "count", "lower"),
    ("locks.range_grants", "count", "lower"),
    ("metadata.ops", "count", "lower"),
    ("server.transactions", "count", "lower"),
    ("server.intent_ops", "count", "lower"),
    ("server.rejected_releases", "count", "lower"),
    ("netcache.hit_ratio", "ratio", "higher"),
    ("netcache.installs", "count", "lower"),
    ("netcache.invalidations", "count", "lower"),
    ("netcache.entries_dropped", "count", "lower"),
    ("analysis.lost_updates", "count", "lower"),
    ("fault.steps", "count", "higher"),
    ("simtest.schedules", "count", "higher"),
    ("simtest.violations", "count", "lower"),
    ("simtest.client_ops", "count", "higher"),
    ("simtest.client_op_fail_ratio", "ratio", "lower"),
    ("core.builds", "count", "lower"),
    ("core.build_s", "s", "lower"),                        # host
    ("trace.overhead_x", "ratio", "lower"),                # host
    ("trace.calls_per_work", "count", "lower"),
)

#: Per-layer rows of the traced window, for each layer in ``LAYERS``.
LAYER_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("self_s", "s", "lower"),
    ("self_share", "ratio", "lower"),
    ("calls", "count", "lower"),
)

def per_layer_rows() -> List[Tuple[str, str, str]]:
    """Every per-layer metric ``--trace 1`` prints: (name, unit, better).

    The sim end-to-end metrics the contract cannot carry are listed first,
    so a traced record still holds them, unbounded.
    """
    rows = [(m.name, m.unit, m.better) for m in END_TO_END
            if m.name not in CONTRACT_END_TO_END]
    rows.append(SAMPLES)
    rows.extend(COUNTERS)
    rows.extend((f"{layer}.{field}", unit, better)
                for layer in LAYERS for field, unit, better in LAYER_FIELDS)
    return rows


def benchmark_json() -> Dict[str, Any]:
    """The contract document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOAD_WHY[name]}
                      for name in ALL_WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in (END_TO_END_BY_NAME[n] for n in CONTRACT_END_TO_END)],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer_rows()],
    }


def allowance(metric: EndToEnd, baseline: Optional[float]) -> float:
    """How much worse than ``baseline`` the metric may read."""
    return max(metric.bound * abs(baseline or 0.0), metric.slack)
