"""Run collection: the E7/E9 overhead trio as per-protocol time series."""

import json

from repro.core.config import SystemConfig
from repro.core.system import build_system
from repro.obs import runlog
from repro.obs.runlog import OVERHEAD_SERIES, RunCollector


def test_no_collector_means_no_sampler_processes():
    system = build_system(SystemConfig(n_clients=1))
    assert runlog.active() is None
    assert not system.obs.spans_enabled


def test_collector_samples_overhead_series():
    with runlog.collecting(experiment="unit", seed=0) as collector:
        system = build_system(SystemConfig(n_clients=2, seed=0))
        system.run(until=10.0)
    doc = collector.document()
    assert doc["schema"] == "repro.obs/1.0"
    assert doc["manifest"]["experiment"] == "unit"
    assert doc["manifest"]["protocols"] == ["storage_tank"]
    (run,) = doc["runs"]
    assert run["name"] == "storage_tank"
    assert run["labels"]["protocol"] == "storage_tank"
    for sname in OVERHEAD_SERIES:
        series = run["series"][sname]
        assert len(series["times"]) >= 10  # 1 Hz sampling over 10 s + final
        assert len(series["times"]) == len(series["values"])
        assert series["times"] == sorted(series["times"])
    # Storage Tank headline: a passive authority — zero server lease
    # cost in a failure-free run, visible in every sample.
    assert all(v == 0.0 for v in run["series"]["lease_cpu_ops"]["values"])
    assert all(v == 0.0 for v in run["series"]["lease_msgs_sent"]["values"])
    # The registry snapshot rides along in the run entry.
    assert "lease.server.cpu_ops" in run["metrics"]


def test_collector_names_repeat_protocols_uniquely():
    collector = RunCollector(experiment="unit")
    with runlog.use(collector):
        build_system(SystemConfig(n_clients=1, protocol="frangipani"))
        build_system(SystemConfig(n_clients=1, protocol="frangipani"))
    names = [r.name for r in collector.records]
    assert names == ["frangipani", "frangipani@1"]


def test_collector_forces_spans_on():
    with runlog.collecting() as _:
        system = build_system(SystemConfig(n_clients=1))
    assert system.obs.spans_enabled


def test_export_writes_json(tmp_path):
    with runlog.collecting(experiment="unit", seed=3) as collector:
        system = build_system(SystemConfig(n_clients=1, seed=3))
        system.run(until=2.0)
    out = tmp_path / "obs.json"
    collector.export(str(out))
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.obs/1.0"
    assert doc["manifest"]["seed"] == 3


def test_client_lease_msgs_series_reads_the_registry_family():
    """``client_lease_msgs`` is the registry family summed over nodes."""
    with runlog.collecting() as collector:
        system = build_system(SystemConfig(n_clients=4, seed=0))
    c1 = system.client("c1")
    proc = system.spawn(c1.create("/f"))
    system.sim.run_until_event(proc, hard_limit=60.0)
    system.run(until=system.sim.now + system.config.lease.tau)
    assert c1.keepalives_sent >= 1
    (run,) = collector.document()["runs"]
    sent = system.obs.registry.value("lease.client.msgs_sent")
    assert sent >= c1.keepalives_sent
    assert run["series"]["client_lease_msgs"]["values"][-1] == sent
