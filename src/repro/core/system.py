"""System assembly: one server, N clients, two networks, shared disks.

Protocol variation is data-driven: ``build_system`` looks the configured
protocol name up in the registry (:mod:`repro.protocols.registry`) and
assembles purely from the returned spec — authority factory, client
kind, lease usage, fencing policy, client agent.  A shared
:class:`~repro.obs.Observability` bundle threads through every node so
all overhead counters land in one metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.client.node import ClientConfig, StorageTankClient
from repro.client.pool import Client, ClientPool
from repro.cluster.coordinator import COORDINATOR_NAME, ClusterCoordinator
from repro.cluster.shardmap import ShardMap
from repro.cluster.takeover import ServerShardRole
from repro.core.config import SystemConfig
from repro.lease.pooled import PooledLeaseService
from repro.net.control import ControlNetwork, Endpoint
from repro.net.partition import combined_views, is_symmetric
from repro.net.san import SanFabric
from repro.netcache import MetadataCacheNode, install_cache_router
from repro.obs import Observability
from repro.obs import runlog as _runlog
from repro.protocols.nfs_polling import NfsPollingClient
from repro.protocols.registry import get as get_protocol
from repro.server.node import ServerConfig, StorageTankServer
from repro.sim.clock import ClockEnsemble
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.storage.disk import VirtualDisk


@dataclass
class StorageTankSystem:
    """A built installation, ready to run.

    Client access goes through :attr:`pool` — the typed
    :class:`~repro.client.pool.ClientPool` accessor
    (``system.pool.get(name)``, ``system.pool.iter_active()``,
    ``len(system.pool)``), which is also the flyweight store every
    population is built through.
    """

    config: SystemConfig
    sim: Simulator
    streams: RandomStreams
    trace: TraceRecorder
    clocks: ClockEnsemble
    control_net: ControlNetwork
    san: SanFabric
    disks: Dict[str, VirtualDisk]
    server: StorageTankServer
    pool: ClientPool
    #: Coalesced lease-lapse tracking for registered, unbuilt clients
    #: (idle, and costing no kernel event, until a workload seeds it).
    pooled_leases: PooledLeaseService
    servers: Dict[str, StorageTankServer] = field(default_factory=dict)
    obs: Observability = field(default_factory=Observability)
    #: Membership monitor; exists iff ``n_servers >= 2``.
    coordinator: Optional[ClusterCoordinator] = None
    #: In-network metadata cache nodes by name (empty without a tier).
    netcache: Dict[str, MetadataCacheNode] = field(default_factory=dict)
    #: Always None: read only by the frozen ``bench/`` snapshot, which
    #: reports its timer-pool count as 0 when this is falsy.
    timers: None = None

    # -- convenience ------------------------------------------------------
    def client(self, name: str) -> Client:
        """Look up a client node, building it on first touch."""
        return self.pool.get(name)

    def server_node(self, name: str) -> StorageTankServer:
        """Look up a server node by name."""
        return self.servers[name]

    def spawn(self, gen, name: Optional[str] = None):
        """Run a generator as a simulation process."""
        return self.sim.process(gen, name=name)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Advance the simulation."""
        return self.sim.run(until=until, max_events=max_events)

    def network_views(self) -> Dict[str, Any]:
        """Two-network combined views V(A) and symmetry verdict (paper §2).

        On the SAN, only computer↔device pairs can communicate: two
        clients never talk over the SAN, which is exactly what makes a
        symmetric control-network cut asymmetric overall (Fig. 2).
        """
        client_names = list(self.config.client_names())
        entities = ([self.server.name] + client_names + list(self.disks))
        ctrl_members = {self.server.name, *client_names}
        devices = set(self.disks)

        class _SanView:
            """SAN reachability restricted to initiator↔device pairs."""

            def __init__(self, fabric):
                self._fabric = fabric

            def reachable(self, a: str, b: str) -> bool:
                if (a in devices) == (b in devices):
                    return False  # device↔device and computer↔computer: no path
                return self._fabric.reachable(a, b)

        san_members = {*client_names, *self.disks, self.server.name}
        views = combined_views(entities,
                               [(self.control_net, ctrl_members),
                                (_SanView(self.san), san_members)])
        return {"views": views, "symmetric": is_symmetric(views)}


def build_system(config: Optional[SystemConfig] = None) -> StorageTankSystem:
    """Assemble a full installation for the configured protocol.

    ``config=None`` builds :meth:`SystemConfig.default` — an explicit,
    named fallback rather than a silent one.  The topology decides what
    is built: a coordinator and shard roles iff ``n_servers >= 2``, the
    cache tier iff ``netcache.n_nodes >= 1``, spans iff a run collector
    is active.  Every client population is registered as flyweight
    records behind one factory (see :mod:`repro.client.pool`), and each
    client is built on first touch; its parked lease records live in one
    :class:`~repro.lease.pooled.PooledLeaseService`, which arms no timer
    until a workload seeds it.
    """
    cfg = config if config is not None else SystemConfig.default()
    spec = get_protocol(cfg.protocol)
    collector = _runlog.active()
    sim = Simulator()
    streams = RandomStreams(cfg.seed)
    trace = TraceRecorder(enabled=cfg.record_trace)
    obs = Observability(spans_enabled=collector is not None)
    clocks = ClockEnsemble(cfg.lease.epsilon, streams)
    contract = cfg.lease.contract()

    net = ControlNetwork(sim, streams, trace,
                         jitter=cfg.network.ctrl_jitter,
                         drop_probability=cfg.network.ctrl_drop_probability)
    net.bind_obs(obs)
    san = SanFabric(sim, streams, trace,
                    base_latency=cfg.network.san_base_latency,
                    per_block_latency=cfg.network.san_per_block_latency,
                    per_device_queueing=cfg.network.san_per_device_queueing)
    san.bind_obs(obs)
    disks = {}
    for dname in cfg.disk_names():
        disk = VirtualDisk(dname, n_blocks=cfg.disk_blocks)
        san.attach_device(disk)
        disks[dname] = disk

    fence = (spec.fence_on_steal if spec.fence_on_steal is not None
             else cfg.fence_on_steal)
    server_cfg = ServerConfig(fence_on_steal=fence)
    server_names = cfg.server_names()
    servers: Dict[str, StorageTankServer] = {}
    for i, sname in enumerate(server_names):
        servers[sname] = StorageTankServer(
            sim, net, san, sname, clocks.create(sname), contract,
            config=server_cfg, trace=trace,
            authority_factory=lambda srv: spec.authority(cfg, srv),
            id_base=i * 1_000_000_000,
            alloc_share=(i, len(server_names)),
            obs=obs)
    server = servers[server_names[0]]

    # Membership follows the topology: two or more servers run shard
    # roles and a coordinator, a single server has nobody to fail over to.
    initial_map = (ShardMap.initial(server_names)
                   if len(server_names) > 1 else None)
    coordinator: Optional[ClusterCoordinator] = None

    client_cfg = ClientConfig(
        writeback_interval=cfg.writeback_interval,
        rpc_timeout=cfg.rpc_timeout, rpc_retries=cfg.rpc_retries,
        data_path=cfg.data_path, use_leases=spec.uses_leases)
    slow = frozenset(cfg.slow_clients)

    def make_client(name: str, idx: int) -> Client:
        """The one factory: every client of every installation, on first
        touch.  A client built late starts on the coordinator's *current*
        map."""
        clock = clocks.create(name, violates_bound=name in slow)
        if spec.client_kind == "nfs":
            return NfsPollingClient(sim, net, san, name, server_names[0],
                                    clock, attr_ttl=cfg.nfs_attr_ttl,
                                    trace=trace, obs=obs)
        client = StorageTankClient(sim, net, san, name, server_names, clock,
                                   contract, config=replace(client_cfg),
                                   trace=trace, obs=obs)
        if spec.agent is not None:
            pool.set_agent(name, spec.agent(cfg, client))
        if initial_map is not None:
            client.routing.attach_cluster(
                COORDINATOR_NAME,
                coordinator.map if coordinator is not None else initial_map)
        return client

    pool = ClientPool(cfg.n_clients, make_client)
    pooled = PooledLeaseService(sim)
    _wire_pool(pool, pooled, net)

    if initial_map is not None:
        peer_stores = {sname: srv.metadata for sname, srv in servers.items()}
        for sname, srv in servers.items():
            role = ServerShardRole(srv, initial_map,
                                   grace=cfg.cluster.takeover_grace,
                                   map_lease=cfg.cluster.map_lease)
            role.peer_stores = dict(peer_stores)
            role.order = server_names
            srv.attach_cluster(role)
        coordinator = ClusterCoordinator(
            sim, net, COORDINATOR_NAME, server_names,
            clocks.create(COORDINATOR_NAME), cfg.cluster,
            trace=trace, obs=obs, pool=pool)
        coordinator.start()

    netcache: Dict[str, MetadataCacheNode] = {}
    if cfg.netcache.n_nodes:
        # In-network metadata cache tier: per-rack soft-state nodes the
        # control network routes cacheable reads through.  Without
        # nodes the transmit path has a None router.
        for mname in cfg.cache_names():
            netcache[mname] = MetadataCacheNode(
                sim, net, mname, server_names, clocks.create(mname),
                contract, cfg.netcache, trace=trace, obs=obs)
        for srv in servers.values():
            srv.barrier.attach_cache_nodes(cfg.cache_names())
        install_cache_router(net, netcache, server_names)

    system = StorageTankSystem(config=cfg, sim=sim, streams=streams,
                               trace=trace, clocks=clocks, control_net=net,
                               san=san, disks=disks, server=server,
                               pool=pool, pooled_leases=pooled,
                               servers=servers, obs=obs,
                               coordinator=coordinator, netcache=netcache)
    if collector is not None:
        collector.on_system_built(system)
    return system


def _wire_pool(pool: ClientPool, pooled: PooledLeaseService,
               net: ControlNetwork) -> None:
    """Connect the flyweight store to the network and lease plumbing.

    - inbound datagrams to a parked name materialize the client through
      the network's lazy resolver (the NACK / server-demand wake path);
    - materializing drops the client's pooled lease record, if a
      workload seeded one — the built client obtains its own lease
      opportunistically with its first acknowledged request.
    """

    def resolve(name: str) -> Optional[Endpoint]:
        if name not in pool:
            return None
        return pool.get(name, reason="datagram").endpoint

    net.set_lazy_resolver(resolve)

    def drop_record(_name: str, idx: int) -> None:
        # The facade starts lease-less and renews with its first ACK;
        # the stale pooled record would otherwise double-count a lapse.
        pooled.lapse(idx)

    pool.on_materialize = drop_record
