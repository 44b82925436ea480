#!/usr/bin/env python
"""Replay a synthetic 'modern workload' trace on a two-server cluster.

The paper's stated next step (§6) was to validate the lease design
against measured file system workloads.  This example synthesizes a
session-structured workload (lognormal file sizes, Zipf popularity,
open→burst→close sessions), replays the *identical* trace on a
two-server Storage Tank installation, injects a mid-run partition that
cuts one client off one server, and shows:

- the cluster keeps serving everything else (per-server leases);
- the audit stays clean;
- the lease phase timeline of the affected client.

Run:  python examples/trace_replay.py
"""

from repro import SystemConfig, build_system
from repro.analysis import ConsistencyAuditor, render_lease_timeline
from repro.analysis.timeline import TimelineConfig
from repro.workloads import TraceProfile, TraceReplayer, TraceSynthesizer

HORIZON_HINT = 120.0


def main() -> None:
    system = build_system(SystemConfig(n_clients=3, n_servers=2, seed=17))
    profile = TraceProfile(n_files=30, sessions_per_client=45,
                           max_file_blocks=32, zipf_s=0.9,
                           ops_per_session_mean=5.0,
                           think_mu=0.4, think_sigma=0.6)
    trace = TraceSynthesizer(profile, seed=17).synthesize(system.config.client_names())
    print(f"synthesized trace: {len(trace.files)} files, "
          f"{trace.total_sessions} sessions, {trace.total_ops} ops, "
          f"{sum(trace.bytes_by_op().values()) / 1e6:.1f} MB of I/O")

    replayer = TraceReplayer(system, trace)
    boot = system.spawn(replayer.populate(), "populate")
    system.sim.run_until_event(boot, hard_limit=600.0)

    # Mid-run: c1 loses its path to server2 only (asymmetric cluster cut).
    def outage():
        yield system.sim.timeout(8.0)
        system.control_net.block_pair("c1", "server2")
        print(f"[{system.sim.now:6.2f}s] *** c1 loses server2 "
              f"(server1 and the SAN stay reachable) ***")
        yield system.sim.timeout(40.0)
        system.control_net.unblock_pair("c1", "server2")
        print(f"[{system.sim.now:6.2f}s] *** path to server2 heals ***")
    system.spawn(outage(), "outage")

    procs = [system.spawn(replayer.replay_client(c), f"replay:{c}")
             for c in trace.sessions]
    for p in procs:
        system.sim.run_until_event(p, hard_limit=3600.0)
    system.run(until=system.sim.now + 5.0)

    print("\nper-client outcome:")
    for name, st in replayer.stats.items():
        print(f"  {name}: {st.ops_succeeded} ops ok, "
              f"{st.ops_rejected} rejected (lease protection), "
              f"mean session latency {st.mean_latency:.3f}s")

    report = ConsistencyAuditor(system).audit()
    print(f"\nconsistency audit: "
          f"{'SAFE' if report.safe else report.summary()}")
    assert report.safe

    lease2 = system.client("c1").lease_for("server2")
    print(f"c1's server2 lease expired during the outage: "
          f"{lease2.expirations} time(s); server1 lease expirations: "
          f"{system.client('c1').lease_for('server1').expirations}")

    print("\nc1 lease timeline (both servers share the strip):")
    print(render_lease_timeline(system,
                                TimelineConfig(width=72, start=0.0,
                                               end=min(system.sim.now,
                                                       HORIZON_HINT))))


if __name__ == "__main__":
    main()
