"""Cluster membership and shard takeover for multi-server installations.

Every installation with two or more servers shards its namespace over
a dynamic, failure-tolerant metadata cluster:

- :mod:`repro.cluster.shardmap` — the slot → owning-server map with a
  monotonically increasing *map epoch*;
- :mod:`repro.cluster.coordinator` — a small coordinator process on the
  control network that detects server death, reassigns slots and
  publishes map updates;
- :mod:`repro.cluster.takeover` — the per-server shard role: ownership
  gating (``WRONG_OWNER`` NACKs), the (τ + map_lease)(1+ε) takeover
  reassertion window that reuses the lock-stealing timing argument of
  Theorem 3.1, and the graceful slot handoff used for failback.

See DESIGN.md §cluster for the safety argument.
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.shardmap import N_SLOTS, ShardMap, slot_of_path
from repro.cluster.takeover import ServerShardRole

__all__ = [
    "ClusterCoordinator",
    "N_SLOTS",
    "ServerShardRole",
    "ShardMap",
    "slot_of_path",
]
