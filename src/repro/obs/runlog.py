"""Run collection: turn live systems into exportable metric documents.

A :class:`RunCollector` is installed (via :func:`use` or
:func:`collecting`) around experiment code; while it is active,
``build_system`` reports every installation it assembles and the
collector

- labels the run (protocol, client count, seed),
- spawns a sampler process on the system's simulator that records the
  E7/E9 overhead trio (``state_bytes``, ``lease_cpu_ops``,
  ``lease_msgs_sent``) plus ``client_lease_msgs`` as time series over
  *simulated* time,
- and, at :meth:`RunCollector.export` time, snapshots each system's
  metrics registry and completed spans into the versioned
  ``repro.obs/1.0`` document (see :mod:`repro.obs.export`).

When no collector is active, ``build_system`` spawns nothing — tier-1
runs execute the exact event sequence they always did.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Generator, List, Optional

from repro.obs.export import export_json, make_document, make_manifest, run_entry

#: Series names sampled for every run (the paper's overhead counters,
#: plus the PR 10 protocol-cost ratio: client-originated RPC round
#: trips — keep-alives excluded — per completed operation).
OVERHEAD_SERIES = ("state_bytes", "lease_cpu_ops", "lease_msgs_sent",
                   "client_lease_msgs", "messages_per_op")

_ACTIVE: Optional["RunCollector"] = None


def active() -> Optional["RunCollector"]:
    """The currently installed collector (None almost always)."""
    return _ACTIVE


@contextmanager
def use(collector: "RunCollector") -> Generator["RunCollector", None, None]:
    """Install ``collector`` for the duration of the with-block."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = collector
    try:
        yield collector
    finally:
        _ACTIVE = prev


@contextmanager
def collecting(**manifest_kwargs: Any) -> Generator["RunCollector", None, None]:
    """Create and install a fresh :class:`RunCollector` in one step."""
    with use(RunCollector(**manifest_kwargs)) as collector:
        yield collector


class _RunRecord:
    """One observed system: labels, its obs handle and sampled series."""

    def __init__(self, name: str, labels: Dict[str, str],
                 system: Any) -> None:
        self.name = name
        self.labels = labels
        self.system = system
        self.series: Dict[str, Dict[str, List[float]]] = {
            s: {"times": [], "values": []} for s in OVERHEAD_SERIES}


class RunCollector:
    """Accumulates per-system overhead series and registry snapshots."""

    def __init__(self, experiment: str = "", seed: Optional[int] = None,
                 sample_interval: float = 1.0,
                 **extra: Any) -> None:
        self.experiment = experiment
        self.seed = seed
        self.sample_interval = sample_interval
        self.extra = extra
        self.records: List[_RunRecord] = []
        self._name_counts: Dict[str, int] = {}

    # -- wiring (called by build_system) ---------------------------------
    def on_system_built(self, system: Any) -> None:
        """Label a freshly built system and start its overhead sampler."""
        cfg = system.config
        base = cfg.protocol
        n = self._name_counts.get(base, 0)
        self._name_counts[base] = n + 1
        name = base if n == 0 else f"{base}@{n}"
        record = _RunRecord(name, {
            "protocol": cfg.protocol,
            "n_clients": str(cfg.n_clients),
            "n_servers": str(cfg.n_servers),
            "seed": str(cfg.seed),
        }, system)
        self.records.append(record)
        system.sim.process(self._sampler(system, record,
                                         self.sample_interval),
                           name=f"obs:sampler:{name}")

    def _sample(self, system: Any, record: _RunRecord) -> None:
        t = system.sim.now
        totals = {s: 0.0 for s in OVERHEAD_SERIES}
        for srv in system.servers.values():
            snap = srv.authority.overhead_snapshot()
            totals["state_bytes"] += snap.get("state_bytes", 0.0)
            totals["lease_cpu_ops"] += snap.get("lease_cpu_ops", 0.0)
            totals["lease_msgs_sent"] += snap.get("lease_msgs_sent", 0.0)
        client_msgs = 0.0
        rpcs = 0.0
        ops = 0.0
        for cl in system.pool.iter_active():
            snap = cl.overhead_snapshot()
            client_msgs += snap.get("lease_msgs_sent", 0.0)
            # The fleet ratio needs raw counts, not per-client ratios:
            # rpc_total = ratio * ops for each client, summed.
            ops += snap.get("ops_completed", 0.0)
            rpcs += (snap.get("messages_per_op", 0.0)
                     * snap.get("ops_completed", 0.0))
        for agent in system.pool.iter_agents():
            snap = agent.overhead_snapshot()
            client_msgs += snap.get("lease_msgs_sent", 0.0)
            ops += snap.get("ops_completed", 0.0)
            rpcs += (snap.get("messages_per_op", 0.0)
                     * snap.get("ops_completed", 0.0))
        totals["client_lease_msgs"] = client_msgs
        totals["messages_per_op"] = rpcs / ops if ops else 0.0
        for sname, value in totals.items():
            record.series[sname]["times"].append(t)
            record.series[sname]["values"].append(value)

    def _sampler(self, system: Any, record: _RunRecord, interval: float,
                 ) -> Generator[Any, Any, None]:
        while True:
            self._sample(system, record)
            yield system.sim.timeout(interval)

    # -- export ----------------------------------------------------------
    def document(self) -> Dict[str, Any]:
        """The collected state as a ``repro.obs/1.0`` document."""
        runs = []
        for record in self.records:
            self._sample(record.system, record)  # final closing sample
            obs = getattr(record.system, "obs", None)
            metrics = obs.registry.snapshot() if obs is not None else {}
            spans = (obs.tracer.to_dicts()
                     if obs is not None and obs.tracer is not None else [])
            runs.append(run_entry(record.name, labels=record.labels,
                                  metrics=metrics, series=record.series,
                                  spans=spans))
        manifest = make_manifest(
            experiment=self.experiment, seed=self.seed,
            protocols=sorted({r.labels["protocol"] for r in self.records}),
            **self.extra)
        return make_document(manifest, runs)

    def export(self, path: str) -> None:
        """Write the collected document to ``path`` as JSON."""
        export_json(self.document(), path)
