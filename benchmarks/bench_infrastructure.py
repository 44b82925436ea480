"""Infrastructure micro-benchmarks: simulator and transport throughput.

Not a paper table — these keep the substrate honest: experiment wall
times are dominated by kernel event dispatch and endpoint round-trips,
so regressions here silently slow every E/A run.  The guides' rule:
no optimization without measurement — this is the measurement.
"""

import gc

import numpy as np

from repro.client import Page, PageCache
from repro.core.config import NetCacheConfig, SystemConfig, WorkloadConfig
from repro.core.system import build_system
from repro.lease import PooledLeaseService
from repro.net import ControlNetwork, Endpoint
from repro.net.message import Getattr, MsgKind
from repro.obs.registry import MetricsRegistry
from repro.sim import ClockEnsemble, RandomStreams, Simulator
from repro.sim.trace import TraceRecorder
from repro.simtest.runner import run_schedule
from repro.simtest.schedule import generate_schedule
from repro.workloads.generator import populate_files


def _spin_timeouts(n: int) -> float:
    sim = Simulator()

    def ticker():
        for _ in range(n):
            yield sim.timeout(0.001)
    sim.process(ticker())
    sim.run()
    return sim.now


def test_kernel_event_throughput(benchmark):
    """Dispatch rate for the bare event loop (timeout-resume cycles)."""
    n = 20_000
    benchmark(_spin_timeouts, n)


def _spin_processes(n_procs: int, n_each: int) -> None:
    sim = Simulator()

    def worker():
        for _ in range(n_each):
            yield sim.timeout(0.01)
    for _ in range(n_procs):
        sim.process(worker())
    sim.run()


def test_kernel_concurrent_processes(benchmark):
    """Interleaved scheduling across many processes."""
    benchmark(_spin_processes, 200, 100)


def _sync_handler(sim: Simulator):
    return lambda m: ("ack", {})


def _generator_handler(sim: Simulator):
    """A generator handler that never waits (a lock granted at once)."""
    def handler(m):
        return ("ack", {})
        yield  # pragma: no cover - makes this a generator function
    return handler


def _parked_handler(sim: Simulator):
    """A generator handler that waits once (a zero-delay park)."""
    def handler(m):
        yield sim.timeout(0.0)
        return ("ack", {})
    return handler


def _parked_long_handler(sim: Simulator):
    """A generator handler that outlasts the requester's retry timeout
    (1.5 s against the default 1.0 s): one retry, re-ACKed pending."""
    def handler(m):
        yield sim.timeout(1.5)
        return ("ack", {})
    return handler


def _spin_rpcs(n: int, make_handler=_sync_handler) -> int:
    sim = Simulator()
    streams = RandomStreams(1)
    net = ControlNetwork(sim, streams)
    ens = ClockEnsemble(0.0, streams)
    server = Endpoint(sim, net, "server", ens.create("server"))
    client = Endpoint(sim, net, "client", ens.create("client"))
    server.register(MsgKind.GETATTR, make_handler(sim))
    done = [0]

    def caller():
        for _ in range(n):
            yield from client.request("server", MsgKind.GETATTR,
                                      Getattr(path="/f"))
            done[0] += 1
    sim.process(caller())
    sim.run()
    assert done[0] == n
    return done[0]


def test_endpoint_rpc_throughput(benchmark):
    """Full request→handler→ACK round-trips per second."""
    benchmark(_spin_rpcs, 2_000)


def test_endpoint_rpc_generator_throughput(benchmark):
    """The same round trip through a generator handler that never
    waits: two datagrams, so it should cost what ``endpoint_rpc`` does
    (before PR 23 every generator paid receipt ACK + RESULT + its ACK)."""
    benchmark(_spin_rpcs, 2_000, _generator_handler)


def test_endpoint_rpc_parked_throughput(benchmark):
    """A handler that really waits, less than the retry timeout: one
    endpoint-owned process and two datagrams, the request and the final
    ACK that answers it (before this path answered directly it cost a
    receipt ACK, a server-initiated RESULT and its ACK, two processes)."""
    benchmark(_spin_rpcs, 2_000, _parked_handler)


def test_endpoint_rpc_parked_long_throughput(benchmark):
    """A handler that waits past the retry timeout: the retry is
    re-ACKed pending and the final answers the admitted attempt, four
    datagrams in all."""
    benchmark(_spin_rpcs, 2_000, _parked_long_handler)


def _spin_lease_rpc(n: int) -> int:
    """``n`` sequential ``getattr`` round trips of one leased client.

    Every ACK renews the client's lease (§3.1); the row prices what the
    kernel schedules around the two datagrams of each call: the retry
    timer, the reply's wait, the lease daemon and the operation bracket.
    """
    cfg = SystemConfig(n_clients=1, protocol="storage_tank",
                       workload=WorkloadConfig(n_files=1))
    system = build_system(cfg)
    client = system.client(system.pool.name_of(0))

    def caller():
        yield from client.create("/bench")
        for _ in range(n):
            yield from client.getattr("/bench")

    proc = system.spawn(caller(), "bench:lease-rpc")
    system.sim.run_until_event(proc, hard_limit=system.sim.now + 600)
    assert client.ops_completed >= n
    return n


def test_lease_rpc_throughput(benchmark):
    """Leased ``getattr`` round trips per second, each renewing the lease."""
    benchmark(_spin_lease_rpc, 2_000)


def _spin_trace_emits(n: int) -> int:
    trace = TraceRecorder(enabled=True)
    emit = trace.emit
    for i in range(n):
        emit(i * 0.001, "msg.send", "n1", "fs.getattr", "n2", i, i)
    return len(trace)


def test_trace_recorder_throughput(benchmark):
    """Stored-record emission rate (the per-message tracing cost)."""
    assert benchmark(_spin_trace_emits, 50_000) == 50_000


def _resident_trace(n: int) -> TraceRecorder:
    """A recorder already holding ``n`` stored records, collected into
    the oldest generation as a long recording's are."""
    trace = TraceRecorder(enabled=True)
    emit = trace.emit
    for i in range(n):
        emit(i * 0.001, "msg.send", "n1", "fs.getattr", "n2", i, i)
    gc.collect()
    return trace


def _spin_trace_resident(trace: TraceRecorder, n: int) -> int:
    """``n`` more emits onto ``trace`` with the cyclic GC on, so every
    full collection the emits trigger walks what the recorder holds."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        emit = trace.emit
        base = len(trace)
        for i in range(base, base + n):
            emit(i * 0.001, "msg.send", "n1", "fs.getattr", "n2", i, i)
    finally:
        if not was_enabled:
            gc.disable()
    return len(trace) - base


def test_trace_recorder_resident_throughput(benchmark):
    """Emission rate onto a long recording (400k records) with GC on:
    the per-record cost a full collection adds to every stored record."""
    assert benchmark.pedantic(
        _spin_trace_resident, setup=lambda: ((_resident_trace(400_000),
                                              200_000), {}),
        rounds=3) == 200_000


def _spin_trace_counting_only(n: int) -> int:
    trace = TraceRecorder(enabled=False)
    emit = trace.emit
    for i in range(n):
        emit(i * 0.001, "msg.send", "n1", "fs.getattr", "n2", i, i)
    return trace.count("msg.send")


def test_trace_counting_only_throughput(benchmark):
    """Counter-only emission rate (storage disabled, counts exact)."""
    assert benchmark(_spin_trace_counting_only, 50_000) == 50_000


def _spin_metrics(n: int) -> float:
    reg = MetricsRegistry()
    counter = reg.counter("bench.ops", labels=("node",))
    hist = reg.histogram("bench.latency_s", labels=("kind", "status"))
    for i in range(n):
        counter.labels(node="n1").inc()
        hist.labels(kind="fs.getattr", status="ack").observe(0.001 * (i % 7))
    return reg.value("bench.ops", node="n1")


def test_metrics_registry_throughput(benchmark):
    """Label-resolution + update rate for counters and histograms."""
    assert benchmark(_spin_metrics, 50_000) == 50_000


def _spin_fuzz_step() -> None:
    result = run_schedule(generate_schedule(0, 6))
    assert result.ok


def test_fuzz_step_throughput(benchmark):
    """One full fuzz run (build system, inject faults, check oracles)."""
    benchmark(_spin_fuzz_step)


def _spin_netcache_lookup(n: int, entry_ttl: float) -> float:
    """``n`` cache-tier lookups of one hot path; ``entry_ttl`` picks the row.

    With ``entry_ttl=0`` every lookup after the cold one is a soft-state
    hit served at the cache node; with a TTL shorter than the think gap
    the entry ages out before each request, so every lookup takes the
    full miss path (forward upstream, reinstall) while exercising the
    identical client→cache→client plumbing.
    """
    cfg = SystemConfig(
        n_clients=1, protocol="storage_tank",
        workload=WorkloadConfig(n_files=1),
        netcache=NetCacheConfig(n_nodes=1, entry_ttl=entry_ttl))
    system = build_system(cfg)
    sim = system.sim
    client = system.client(system.pool.name_of(0))

    def caller():
        paths = yield from populate_files(system)
        path = paths[0]
        yield from client.lookup(path)  # cold install
        for _ in range(n):
            yield sim.timeout(0.001)
            yield from client.lookup(path)

    proc = system.spawn(caller(), "bench:netcache")
    sim.run_until_event(proc, hard_limit=sim.now + 600)
    cache = next(iter(system.netcache.values()))
    served = cache.hits if entry_ttl == 0.0 else cache.misses
    assert served >= n
    return cache.hit_rate()


def test_netcache_hit_throughput(benchmark):
    """Lookups/sec served from a cache node's soft state."""
    assert benchmark(_spin_netcache_lookup, 500, 0.0) > 0.9


def test_netcache_miss_throughput(benchmark):
    """Lookups/sec through the full miss path (forward + reinstall)."""
    assert benchmark(_spin_netcache_lookup, 500, 1e-4) < 0.1


def _spin_scale_registration(n_clients: int) -> int:
    cfg = SystemConfig(n_clients=n_clients, protocol="storage_tank")
    system = build_system(cfg)
    slots = np.arange(n_clients)
    system.pooled_leases.seed(50.0 + (slots % 997) * 0.01)
    system.sim.run(until=40.0)  # leases all later: pure idle population
    assert system.sim.pending_events < 64  # O(pools), not O(clients)
    return n_clients


def test_scale_client_registration_throughput(benchmark):
    """Flyweight-registration rate: register 50k clients lazily and
    seed each a pooled lease with one ``seed``."""
    benchmark(_spin_scale_registration, 50_000)


def _spin_pooled_seed_sweep(n_slots: int, n_deadlines: int) -> int:
    """Seed ``n_slots`` parked leases over ``n_deadlines`` distinct
    deadlines with one ``seed``, then run the pooled sweep dry —
    the bulk path E-scale and ``bench/``'s ``scale_park`` pay."""
    sim = Simulator()
    pooled = PooledLeaseService(sim)
    slots = np.arange(n_slots)
    pooled.seed(1.0 + (slots % n_deadlines) * 0.1)
    sim.run()
    assert pooled.expired == n_slots
    return n_slots


def test_pooled_seed_sweep_throughput(benchmark):
    """Parked leases seeded and swept per second, bulk path."""
    benchmark(_spin_pooled_seed_sweep, 200_000, 180)


def _spin_intent_open(n: int) -> int:
    """``n`` open/close cycles through the intent path.

    Each cycle is one LOCK_BATCH round trip: the open intent carries the previous iteration's deferred close, so the
    steady state is exactly one control datagram per open — the PR 10
    claim, measured end to end through the real client and server.
    """
    cfg = SystemConfig(n_clients=1, protocol="storage_tank",
                       workload=WorkloadConfig(n_files=1))
    system = build_system(cfg)
    client = system.client(system.pool.name_of(0))

    def caller():
        yield from client.create("/bench", size=4096)
        for _ in range(n):
            fd = yield from client.open_file("/bench", "r")
            yield from client.close(fd)

    proc = system.spawn(caller(), "bench:intent-open")
    system.sim.run_until_event(proc, hard_limit=system.sim.now + 600)
    assert client.ops_completed >= n
    return n


def test_intent_open_throughput(benchmark):
    """Open/close cycles per second, one intent round trip each."""
    benchmark(_spin_intent_open, 1_000)


def _spin_intent_open_long(n: int, n_extents: int = 512) -> int:
    """``n`` open/close cycles on a file of ``n_extents`` extents.

    ``intent_open`` above opens a one-block file and cannot see what an
    open costs per extent.  Here two files are grown in turn on the
    server's own store (no client traffic), so their runs alternate on
    the disk and each holds ``n_extents`` extents; the timed part is the
    same one-datagram cycle.  Since PR 17 the client names the map it
    holds and the reply carries only the runs past it — none, here.
    """
    cfg = SystemConfig(n_clients=1, protocol="storage_tank",
                       workload=WorkloadConfig(n_files=1))
    system = build_system(cfg)
    client = system.client(system.pool.name_of(0))
    server = system.server_node("server")
    store = server.metadata

    def caller():
        fid = yield from client.create("/bench", size=4096)
        other = yield from client.create("/other", size=4096)
        for blocks in range(2, n_extents + 1):
            for f in (fid, other):
                yield from server.barrier.mutate(
                    lambda claim: store.ensure_size(
                        f, blocks * 4096, now=system.sim.now, claim=claim),
                    file_ids=(f,))
        assert len(store.inode(fid).extents.extents) == n_extents
        for _ in range(n):
            fd = yield from client.open_file("/bench", "r")
            yield from client.close(fd)
        fd = yield from client.open_file("/bench", "r")
        assert client.fds.get(fd).extents.block_count == n_extents

    proc = system.spawn(caller(), "bench:intent-open-long")
    system.sim.run_until_event(proc, hard_limit=system.sim.now + 600)
    assert client.ops_completed >= n
    return n


def test_intent_open_long_throughput(benchmark):
    """Open/close cycles per second on a 512-extent file."""
    benchmark(_spin_intent_open_long, 500)


def _spin_page_cache_hit(n: int, resident: int = 1024) -> int:
    """``n`` hits on a page cache holding ``resident`` pages, the keys
    drawn uniformly: half the resident set is more recent than the page
    hit, which is what a recency *list* pays for and an ordered map does
    not."""
    cache = PageCache(capacity_pages=resident)
    for block in range(resident):
        cache.put_clean(Page(file_id=1, logical_block=block, device="d",
                             lba=block, tag=None, version=0))
    blocks = np.random.default_rng(0).integers(0, resident, size=n).tolist()
    get = cache.get
    for block in blocks:
        get(1, block)
    assert cache.stats.hits == n and cache.stats.misses == 0
    return n


def test_page_cache_hit_throughput(benchmark):
    """Cache hits per second with 1,024 resident pages."""
    benchmark(_spin_page_cache_hit, 100_000)


def _spin_batched_range_acquire(n: int) -> int:
    """``n`` four-range locked reads, two LOCK_BATCH round trips each.

    The batch-adjacent grant policy coalesces the four contiguous
    sub-requests into one interval-list grant, so this measures the
    whole batching stack: client batch assembly, policy coalescing,
    server-side grant, paired batched release.
    """
    cfg = SystemConfig(n_clients=1, protocol="storage_tank",
                       workload=WorkloadConfig(n_files=1))
    system = build_system(cfg)
    client = system.client(system.pool.name_of(0))

    def caller():
        yield from client.create("/bench", size=4 * 4096)
        fd = yield from client.open_file("/bench", "r")
        ranges = [(i * 4096, 4096) for i in range(4)]
        for _ in range(n):
            yield from client.read_ranges_locked(fd, ranges)

    proc = system.spawn(caller(), "bench:batched-range")
    system.sim.run_until_event(proc, hard_limit=system.sim.now + 600)
    assert client.ops_completed >= 4 * n
    return n


def test_batched_range_acquire_throughput(benchmark):
    """Batched 4-range lock/IO/unlock cycles per second."""
    benchmark(_spin_batched_range_acquire, 250)
