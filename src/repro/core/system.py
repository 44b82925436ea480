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
from repro.client.pool import ClientPool
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.shardmap import ShardMap
from repro.cluster.takeover import ServerShardRole
from repro.core.config import SystemConfig
from repro.lease.pooled import PooledLeaseService
from repro.lease.server_lease import ServerLeaseAuthority
from repro.net.control import ControlNetwork, Endpoint
from repro.net.message import MsgKind
from repro.net.partition import PartitionController, combined_views, is_symmetric
from repro.net.san import SanFabric
from repro.netcache import MetadataCacheNode, install_cache_router
from repro.obs import Observability, SpanTracer
from repro.obs import runlog as _runlog
from repro.obs.export import export_json, make_document, make_manifest, run_entry
from repro.protocols.base import ClientAgent
from repro.protocols.nfs_polling import NfsPollingClient
from repro.protocols.registry import get as get_protocol
from repro.server.node import ServerConfig, StorageTankServer
from repro.sim.clock import ClockEnsemble
from repro.sim.kernel import Simulator
from repro.sim.timer_pool import TimerPool
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
    #: Pooled timer substrate (idle, and costing no kernel event, until a
    #: client is parked with a live lease).
    timers: TimerPool
    #: Coalesced lease-lapse tracking for parked flyweight clients.
    pooled_leases: PooledLeaseService
    servers: Dict[str, StorageTankServer] = field(default_factory=dict)
    obs: Observability = field(default_factory=Observability)
    #: Membership monitor; exists iff ``n_servers >= 2``.
    coordinator: Optional[ClusterCoordinator] = None
    #: In-network metadata cache nodes by name (empty without a tier).
    netcache: Dict[str, MetadataCacheNode] = field(default_factory=dict)

    # -- convenience ------------------------------------------------------
    @property
    def ctrl_partitions(self) -> PartitionController:
        """Partition controller for the control network."""
        return PartitionController(self.control_net)

    @property
    def san_partitions(self) -> PartitionController:
        """Partition controller for the SAN."""
        return PartitionController(self.san)

    def client(self, name: str) -> ClientAgent:
        """Look up a client node (materializes a parked flyweight)."""
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
        client_names = self.pool.live_names()
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

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One dict of every counter the experiments report."""
        auth = self.server.authority
        auth_over = auth.overhead_snapshot()
        snap: Dict[str, Any] = {
            "time": self.sim.now,
            "server.transactions": self.server.transactions,
            "server.data_bytes_served": self.server.data_bytes_served,
            "server.meta_ops": self.server.metadata.ops,
            "server.lock_grants": self.server.locks.grants,
            "server.lock_steals": self.server.locks.steals,
            "authority.state_bytes": int(auth_over["state_bytes"]),
            "authority.cpu_ops": int(auth_over["lease_cpu_ops"]),
            "authority.msgs_sent": int(auth_over["lease_msgs_sent"]),
            "ctrl.delivered": self.control_net.delivered_count,
            "ctrl.dropped": self.control_net.dropped_count,
            "san.bytes_read": self.san.bytes_read,
            "san.bytes_written": self.san.bytes_written,
            "san.io_count": self.san.io_count,
        }
        if isinstance(auth, ServerLeaseAuthority):
            snap["authority.peak_state_bytes"] = auth.peak_state_bytes
            snap["authority.steals"] = auth.total_steals
        if len(self.servers) > 1:
            for sname, srv in self.servers.items():
                snap[f"{sname}.transactions"] = srv.transactions
                snap[f"{sname}.lock_grants"] = srv.locks.grants
                snap[f"{sname}.state_bytes"] = srv.authority.state_bytes()
        for cname, cache in self.netcache.items():
            for key, val in cache.counters().items():
                snap[f"{cname}.{key}"] = val
        if self.coordinator is not None:
            snap["cluster.map_epoch"] = self.coordinator.map.epoch
            snap["cluster.takeovers"] = self.coordinator.takeovers
            snap["cluster.failbacks"] = self.coordinator.failbacks
            for sname, srv in self.servers.items():
                if srv.cluster is not None:
                    snap[f"{sname}.wrong_owner_nacks"] = \
                        srv.cluster.wrong_owner_nacks
            for name, cl in self.pool.live_items():
                if hasattr(cl, "routing"):
                    snap[f"{name}.rerouted_ops"] = cl.routing.rerouted_ops
                    snap[f"{name}.shard_migrations"] = \
                        cl.routing.shard_migrations
        ops_total = 0
        rpc_total = 0
        rpc_by_kind: Dict[str, int] = {}
        for name, cl in self.pool.live_items():
            over = cl.overhead_snapshot()
            snap[f"{name}.ops_completed"] = int(over["ops_completed"])
            snap[f"{name}.app_errors"] = int(over["app_errors"])
            if "polls_sent" in over:
                snap[f"{name}.polls"] = int(over["polls_sent"])
            else:
                snap[f"{name}.ops_rejected"] = int(over["ops_rejected"])
                snap[f"{name}.keepalives"] = int(over["keepalives_sent"])
                snap[f"{name}.cache_hit_rate"] = over["cache_hit_rate"]
            if hasattr(cl, "rpc_by_kind"):
                ops_total += int(over["ops_completed"])
                for kind, n in cl.rpc_by_kind().items():
                    rpc_by_kind[kind] = rpc_by_kind.get(kind, 0) + n
                    if kind != MsgKind.KEEPALIVE:
                        rpc_total += n
        if rpc_by_kind:
            snap["client.rpc_by_kind"] = dict(sorted(rpc_by_kind.items()))
            snap["client.messages_per_op"] = (
                rpc_total / ops_total if ops_total else 0.0)
        for name, agent in self.pool.agent_items():
            over = agent.overhead_snapshot()
            if "heartbeats" in over:
                snap[f"{name}.heartbeats"] = int(over["heartbeats"])
            if "renewals" in over:
                snap[f"{name}.vlease_renewals"] = int(over["renewals"])
                snap[f"{name}.vlease_purges"] = int(over["purges"])
        return snap

    def export_obs(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Export this system's registry/spans as a ``repro.obs`` document.

        Writes JSON to ``path`` when one is given, and returns the
        document either way.
        """
        manifest = make_manifest(experiment="", seed=self.config.seed,
                                 protocols=[self.config.protocol])
        run = run_entry(self.config.protocol,
                        labels={"protocol": self.config.protocol,
                                "n_clients": str(self.config.n_clients),
                                "seed": str(self.config.seed)},
                        metrics=self.obs.registry.snapshot(),
                        spans=self.obs.tracer.to_dicts())
        document = make_document(manifest, [run])
        if path:
            export_json(document, path)
        return document


def build_system(config: Optional[SystemConfig] = None) -> StorageTankSystem:
    """Assemble a full installation for the configured protocol.

    ``config=None`` builds :meth:`SystemConfig.default` — an explicit,
    named fallback rather than a silent one.  The topology decides what
    is built: a coordinator and shard roles iff ``n_servers >= 2``, the
    cache tier iff ``netcache.n_nodes >= 1``, spans iff a run collector
    is active.  Every client population is registered as flyweight
    records behind one factory (see :mod:`repro.client.pool`);
    ``config.scale.lazy_clients`` only chooses whether the builder then
    materializes everyone or leaves that to first touch.
    """
    cfg = config if config is not None else SystemConfig.default()
    spec = get_protocol(cfg.protocol)
    collector = _runlog.active()
    sim = Simulator()
    streams = RandomStreams(cfg.seed)
    trace = TraceRecorder(enabled=cfg.record_trace)
    obs = Observability(tracer=SpanTracer(trace=trace),
                        spans_enabled=collector is not None)
    clocks = ClockEnsemble(cfg.lease.epsilon, streams)
    contract = cfg.lease.contract()

    net = ControlNetwork(sim, streams, trace,
                         base_delay=cfg.network.ctrl_base_delay,
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
    # Recovery grace must out-wait every pre-crash *lease*, not just an
    # idle client's next keep-alive: a client partitioned across the
    # whole window still holds a valid lease (and its pre-crash locks)
    # for up to tau(1+eps) after its last renewal, which is at latest
    # the crash.  Granting fresh locks any earlier than that after the
    # restart hands out objects an unreachable client legitimately
    # still covers — the same bound the suspect timer waits (§3, §6).
    server_cfg = ServerConfig(fence_on_steal=fence,
                              recovery_grace=contract.server_wait_local(),
                              grant_policy=cfg.intent_grant_policy)
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

    # Clients left parked until first touch run no write-back daemon:
    # scale workloads flush explicitly before they park again.
    client_cfg = ClientConfig(
        writeback_interval=(0.0 if cfg.scale.lazy_clients
                            else cfg.writeback_interval),
        rpc_timeout=cfg.rpc_timeout, rpc_retries=cfg.rpc_retries,
        data_path=cfg.data_path, attr_cache_ttl=cfg.attr_cache_ttl,
        use_leases=spec.uses_leases)
    slow = frozenset(cfg.slow_clients)

    def make_client(name: str, idx: int) -> ClientAgent:
        """The one factory: every client of every installation, on first
        touch.  A re-materialized client reuses the node's clock (a
        physical fact) and starts on the coordinator's *current* map."""
        clock = clocks.get_or_create(name, violates_bound=name in slow)
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
                cfg.cluster.coordinator_name,
                coordinator.map if coordinator is not None else initial_map)
        return client

    pool = ClientPool(cfg.n_clients, make_client)
    timers = TimerPool(sim)
    pooled = PooledLeaseService(timers)
    _wire_pool(pool, pooled, net)
    if not cfg.scale.lazy_clients:
        # Same path, other policy: everyone, now, in name order, so the
        # shared clock stream is drawn in the order the names are listed.
        for cname in pool.names():
            pool.get(cname, reason="build")

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
            sim, net, cfg.cluster.coordinator_name, server_names,
            clocks.create(cfg.cluster.coordinator_name), cfg.cluster,
            trace=trace, obs=obs, pool=pool)
        coordinator.start()

    netcache: Dict[str, MetadataCacheNode] = {}
    if cfg.netcache.n_nodes:
        # In-network metadata cache tier: per-rack soft-state nodes the
        # control network routes cacheable reads through.  Constructed
        # last so its clocks draw after every other node's; without
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
                               pool=pool, timers=timers,
                               pooled_leases=pooled, servers=servers, obs=obs,
                               coordinator=coordinator, netcache=netcache)
    if collector is not None:
        collector.on_system_built(system)
    return system


def _wire_pool(pool: ClientPool, pooled: PooledLeaseService,
               net: ControlNetwork) -> None:
    """Connect the flyweight store to the network and lease plumbing.

    - inbound datagrams to a parked name materialize the client through
      the network's lazy resolver (the NACK / server-demand wake path);
    - parking a clean client hands its live lease(s) to the pooled
      expiry service and tears down its endpoint and daemons;
    - materializing drops the pooled record — the facade re-obtains a
      lease opportunistically with its first acknowledged request.
    """

    def resolve(name: str) -> Optional[Endpoint]:
        if name not in pool:
            return None
        return pool.get(name, reason="datagram").endpoint

    net.set_lazy_resolver(resolve)

    def park_client(client: ClientAgent, idx: int) -> None:
        # Only a client whose whole standing state this function can
        # hand over may fold into a record: a protocol agent's daemons
        # and a polling client's attribute cache would be left behind.
        name = pool.name_of(idx)
        if (not isinstance(client, StorageTankClient)
                or pool.agent_for(name) is not None):
            raise ValueError(
                f"cannot park {name!r}: only a storage_tank client "
                f"without a protocol agent folds into a record")
        blockers = client.park_blockers()
        if blockers:
            raise ValueError(f"cannot park {name!r}: {'; '.join(blockers)}")
        lapse_at = None
        for mgr in client.leases.values():
            if not mgr.active:
                continue
            expiry_local = mgr.expiry_local()
            if expiry_local is not None:
                t = client.endpoint.clock.global_time(expiry_local)
                lapse_at = t if lapse_at is None else max(lapse_at, t)
        if lapse_at is not None:
            pooled.renew(idx, lapse_at)
        client.shutdown_for_park()

    pool.set_parker(park_client)

    def drop_record(_name: str, idx: int) -> None:
        # The facade starts lease-less and renews with its first ACK;
        # the stale pooled record would otherwise double-count a lapse.
        pooled.lapse(idx)

    pool.on_materialize = drop_record
