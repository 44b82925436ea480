"""Configuration dataclasses for system assembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.client.pool import slot_of
from repro.cluster.shardmap import N_SLOTS
from repro.lease.contract import LeaseContract, PhaseBoundaries
from repro.protocols.registry import available

#: The safety protocols the builder understands: the names registered
#: in :mod:`repro.protocols.registry`, sorted.
PROTOCOLS = available()


@dataclass(frozen=True)
class LeaseConfig:
    """Lease contract parameters (τ, ε, phase layout)."""

    tau: float = 30.0
    epsilon: float = 0.05
    renewal_frac: float = 0.5
    suspect_frac: float = 0.75
    flush_frac: float = 0.9

    def contract(self) -> LeaseContract:
        """Materialize the immutable contract object."""
        return LeaseContract(
            tau=self.tau, epsilon=self.epsilon,
            boundaries=PhaseBoundaries(renewal=self.renewal_frac,
                                       suspect=self.suspect_frac,
                                       flush=self.flush_frac))


@dataclass(frozen=True)
class NetworkConfig:
    """Delay/loss models for both networks."""

    ctrl_jitter: float = 0.0005
    ctrl_drop_probability: float = 0.0
    san_base_latency: float = 0.0005
    san_per_block_latency: float = 0.00005
    san_per_device_queueing: bool = False  # serialize commands per disk


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the :mod:`repro.cluster` membership subsystem.

    Membership follows the topology: every installation with
    ``n_servers >= 2`` runs the coordinator and the per-server shard
    roles; a single server has nothing to fail over to and runs neither.
    """

    #: Seconds between coordinator liveness pings (per server).
    ping_interval: float = 1.0
    #: Per-attempt ping timeout (local seconds).
    ping_timeout: float = 0.5
    #: Ping retries before a server is declared dead.
    ping_retries: int = 2
    #: A server silences itself after this many local seconds without
    #: coordinator contact (bounds what a partitioned owner can renew).
    map_lease: float = 5.0
    #: Reassertion grace window after the takeover wait.  Much shorter
    #: than restart-recovery grace: displaced clients are *pushed* the
    #: new map at detection time, so their reasserts are already queued
    #: when the wait ends (no 0.5τ keep-alive discovery latency).
    takeover_grace: float = 2.0
    #: Push map updates to clients (False forces pull-based rerouting
    #: via WRONG_OWNER → CLUSTER_MAP_FETCH → retry).
    push_to_clients: bool = True


@dataclass(frozen=True)
class NetCacheConfig:
    """Knobs for the :mod:`repro.netcache` in-network metadata cache tier.

    The tier exists iff ``n_nodes >= 1``: the builder then interposes
    that many soft-state cache nodes (per-rack middleboxes) on the
    client → server path for the cacheable read-path kinds
    (lookup/getattr/readdir); coherence rides the lease protocol, so a
    cache node may die at any instant and the tier degrades to
    forwarding, never to wrong answers.  With no nodes the control
    network routes every metadata RPC straight to its server.
    """

    #: Number of cache nodes (0 = no tier; storage_tank only); clients
    #: are assigned by stable name hash.
    n_nodes: int = 0
    #: Max entry age in local seconds (0 = lease-governed only).
    entry_ttl: float = 0.0


@dataclass(frozen=True)
class ScaleConfig:
    """Empty: ``bench/workloads.py`` still imports it (no policy left)."""


@dataclass(frozen=True)
class WorkloadConfig:
    """Synthetic workload shape (consumed by :mod:`repro.workloads`)."""

    n_files: int = 20
    file_size_blocks: int = 64
    read_fraction: float = 0.7
    think_time: float = 0.05       # mean local seconds between ops
    io_blocks: int = 2             # blocks touched per op
    zipf_s: float = 0.0            # 0 = uniform file popularity
    #: Fraction of ops that are metadata reads (lookup/getattr/readdir)
    #: instead of data I/O.  0.0 (default) draws no extra RNG values, so
    #: pre-existing workload schedules are bit-identical.
    meta_fraction: float = 0.0
    #: Of the metadata ops, the fraction that *mutate* (setattr) — the
    #: traffic that exercises the netcache invalidation barrier.
    meta_mutate_fraction: float = 0.0


@dataclass(frozen=True)
class SystemConfig:
    """One full installation."""

    n_clients: int = 2
    n_servers: int = 1
    n_disks: int = 1
    disk_blocks: int = 1 << 16
    seed: int = 0
    protocol: str = "storage_tank"
    fence_on_steal: bool = True
    writeback_interval: float = 5.0
    rpc_timeout: float = 1.0
    rpc_retries: int = 3
    slow_clients: Tuple[str, ...] = ()   # clock-bound violators (§6)
    data_path: str = "direct"            # "direct" SAN I/O | "server" function ship
    record_trace: bool = True
    lease: LeaseConfig = field(default_factory=LeaseConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    netcache: NetCacheConfig = field(default_factory=NetCacheConfig)
    # Baseline knobs
    frangipani_heartbeat: float = 10.0
    vlease_object_duration: float = 10.0
    nfs_attr_ttl: float = 3.0

    def __post_init__(self) -> None:
        # Validation order matters (and is pinned by tests): the
        # protocol name is checked first, so a config that is wrong in
        # several ways reports the most fundamental mistake.
        if self.protocol not in available():
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"choose one of {available()}")
        if self.n_clients < 1 or self.n_disks < 1 or self.n_servers < 1:
            raise ValueError("need at least one client, server and disk")
        if self.n_servers > 1:
            if self.protocol != "storage_tank":
                raise ValueError(
                    f"n_servers={self.n_servers}: multi-server installations "
                    f"are implemented for the storage_tank protocol only")
            # The shard ring is a constant (repro.cluster.N_SLOTS) and
            # the initial map deals its slots round-robin: a server
            # count that does not divide it would shard unevenly.
            if N_SLOTS % self.n_servers != 0:
                raise ValueError(
                    f"n_servers={self.n_servers} must divide the shard "
                    f"ring's {N_SLOTS} slots")
        if self.netcache.n_nodes < 0:
            raise ValueError(f"netcache.n_nodes={self.netcache.n_nodes} "
                             f"must be >= 0 (0 builds no cache tier)")
        if self.netcache.n_nodes and self.protocol != "storage_tank":
            raise ValueError(
                f"netcache.n_nodes={self.netcache.n_nodes}: the in-network "
                f"metadata cache tier is implemented for the storage_tank "
                f"protocol only (coherence rides leases)")
        # A slow client that does not exist is a silently-ignored typo:
        # the §6 experiment would then measure nothing.  The pool's own
        # naming rule decides (canonical form, in range), without
        # materializing client_names() on every construction.
        for name in self.slow_clients:
            if slot_of(name, self.n_clients) is None:
                raise ValueError(
                    f"slow_clients entry {name!r} does not name a client "
                    f"of this installation (valid: c1..c{self.n_clients})")

    @classmethod
    def default(cls) -> "SystemConfig":
        """The explicit default installation.

        ``build_system(None)`` used to *silently* fall back to an
        implicit default; it now routes through this named constructor
        so the fallback is a greppable, documented decision.
        """
        return cls()

    def client_names(self) -> Tuple[str, ...]:
        """The generated client node names."""
        return tuple(f"c{i}" for i in range(1, self.n_clients + 1))

    def cache_names(self) -> Tuple[str, ...]:
        """Generated cache-node names (empty without a cache tier)."""
        return tuple(f"mcache{i}" for i in range(1, self.netcache.n_nodes + 1))

    def disk_names(self) -> Tuple[str, ...]:
        """The generated device names."""
        return tuple(f"disk{i}" for i in range(1, self.n_disks + 1))

    def server_names(self) -> Tuple[str, ...]:
        """Generated server names ("server" alone keeps the historical
        single-server name)."""
        if self.n_servers == 1:
            return ("server",)
        return tuple(f"server{i}" for i in range(1, self.n_servers + 1))
