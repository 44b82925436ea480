"""The storage area network fabric.

Connects initiators (clients and servers) to storage devices.  The
fabric models transfer latency and SAN partitions, which are
independent of control-network partitions: that independence is exactly
what creates the paper's two-network problem.

Fencing lives on the disks themselves
(:class:`repro.storage.fencing.FenceTable`); a switch-level fence (the
other fencing point §1.2 mentions) would be observably the same.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set

from repro.net.partition import LinkTable
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.storage.blockmap import BLOCK_SIZE
from repro.storage.disk import DiskReadResult, FencedIoError, VirtualDisk

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs import Observability

# Re-exported under the transport-flavoured name used by callers.
FencedError = FencedIoError


class SanUnreachableError(Exception):
    """The fabric cannot route between initiator and device (SAN
    partition)."""

    def __init__(self, initiator: str, device: str) -> None:
        super().__init__(f"SAN path {initiator} -> {device} unavailable")
        self.initiator = initiator
        self.device = device


class SanFabric(LinkTable):
    """Block-I/O transport between initiators and devices.

    A SAN partition is a cut of the
    :class:`~repro.net.partition.LinkTable`; I/O checks both directions
    of a path, so a cut is in effect per unordered pair.
    """

    def __init__(self, sim: Simulator, streams: RandomStreams,
                 trace: Optional[TraceRecorder] = None,
                 base_latency: float = 0.0005,
                 per_block_latency: float = 0.00005,
                 per_device_queueing: bool = False) -> None:
        """``per_device_queueing=True`` serializes commands at each
        device (single-server queue): concurrent I/O to one disk waits
        its turn, which is what makes the disk — not the metadata
        server — the throughput ceiling of the direct-access model."""
        super().__init__()
        self.sim = sim
        self.trace = trace if trace is not None else TraceRecorder(
            enabled=False, counting=False)
        self.base_latency = base_latency
        self.per_block_latency = per_block_latency
        self.per_device_queueing = per_device_queueing
        self._busy_until: Dict[str, float] = {}
        self.queue_wait_total = 0.0
        self._rng = streams.get("net.san")
        self._devices: Dict[str, VirtualDisk] = {}
        self._initiators: Set[str] = set()
        self.bytes_read = 0
        self.bytes_written = 0
        self.io_count = 0

    def bind_obs(self, obs: "Observability") -> None:
        """Mirror the fabric counters into a metrics registry.

        Callback gauges sample the live counters at read time, keeping
        the block-I/O hot path free of extra bookkeeping.
        """
        reg = obs.registry
        reg.gauge("san.bytes_read", "Bytes read over the SAN",
                  ).labels().set_function(lambda: self.bytes_read)
        reg.gauge("san.bytes_written", "Bytes written over the SAN",
                  ).labels().set_function(lambda: self.bytes_written)
        reg.gauge("san.io_count", "SAN I/O commands issued",
                  ).labels().set_function(lambda: self.io_count)
        reg.gauge("san.queue_wait_s", "Total device queueing wait",
                  ).labels().set_function(lambda: self.queue_wait_total)

    # -- membership ---------------------------------------------------------
    def attach_device(self, disk: VirtualDisk) -> None:
        """Register a storage device on the fabric."""
        if disk.name in self._devices:
            raise ValueError(f"duplicate device {disk.name!r}")
        self._devices[disk.name] = disk
        self._attached(disk.name)

    def attach_initiator(self, name: str) -> None:
        """Register a computer that may issue block I/O."""
        self._initiators.add(name)
        self._attached(name)

    def device(self, name: str) -> VirtualDisk:
        """Look up an attached device."""
        return self._devices[name]

    @property
    def devices(self) -> Dict[str, VirtualDisk]:
        """All attached devices by name."""
        return dict(self._devices)

    @property
    def node_names(self) -> List[str]:
        """Initiators and devices (:meth:`isolate`'s default peers)."""
        return sorted(self._initiators) + sorted(self._devices)

    # -- I/O ------------------------------------------------------------------
    def _latency(self, n_blocks: int) -> float:
        jitter = float(self._rng.exponential(self.base_latency * 0.2)) if self.base_latency else 0.0
        return self.base_latency + self.per_block_latency * n_blocks + jitter

    def _delay_for(self, device: str, n_blocks: int) -> float:
        """Total wait for one command: service time, plus queueing
        behind whatever the device is already committed to."""
        service = self._latency(n_blocks)
        if not self.per_device_queueing:
            return service
        now = self.sim.now
        start = max(now, self._busy_until.get(device, now))
        self.queue_wait_total += start - now
        self._busy_until[device] = start + service
        return (start + service) - now

    def _route_check(self, initiator: str, device: str) -> VirtualDisk:
        disk = self._devices.get(device)
        if disk is None:
            raise KeyError(f"unknown device {device!r}")
        if not self.reachable(initiator, device) or not self.reachable(device, initiator):
            self.trace.emit(self.sim.now, "san.unreachable", initiator, device)
            raise SanUnreachableError(initiator, device)
        return disk

    def write(self, initiator: str, device: str, block_tags: Dict[int, str],
              ) -> Generator[Event, None, Dict[int, int]]:
        """Write tagged blocks, returning per-lba disk versions.

        Raises :class:`SanUnreachableError` on partition/zone failures
        and :class:`FencedError` if the device fences the initiator.
        """
        disk = self._route_check(initiator, device)
        yield self.sim.timeout(self._delay_for(device, len(block_tags)))
        # Fences and partitions are evaluated at the instant the command
        # reaches the device, not at submission (late commands from slow
        # computers hit the fence — paper §6).
        self._route_check(initiator, device)
        versions = disk.write(initiator, self.sim.now, block_tags)
        self.io_count += 1
        self.bytes_written += len(block_tags) * BLOCK_SIZE
        trace = self.trace
        if not trace._noop:
            trace.emit(self.sim.now, "san.write", initiator, device,
                       len(block_tags))
        return versions

    def read(self, initiator: str, device: str, lba: int, count: int = 1,
             ) -> Generator[Event, None, List[DiskReadResult]]:
        """Read blocks (process generator returning the block records)."""
        disk = self._route_check(initiator, device)
        yield self.sim.timeout(self._delay_for(device, count))
        self._route_check(initiator, device)
        result = disk.read(initiator, self.sim.now, lba, count)
        self.io_count += 1
        self.bytes_read += count * BLOCK_SIZE
        trace = self.trace
        if not trace._noop:
            trace.emit(self.sim.now, "san.read", initiator, device, count)
        return result

    def dlock_acquire(self, initiator: str, device: str, start_lba: int,
                      length: int, ttl: float, device_now: float,
                      ) -> Generator[Event, None, None]:
        """Issue a GFS-style dlock command to the device (§5 baseline)."""
        disk = self._route_check(initiator, device)
        yield self.sim.timeout(self._latency(1))
        self._route_check(initiator, device)
        disk.dlocks.acquire(initiator, start_lba, length, ttl, device_now)

    def dlock_release(self, initiator: str, device: str, start_lba: int,
                      length: int, device_now: float,
                      ) -> Generator[Event, None, None]:
        """Release a dlock range at the device."""
        disk = self._route_check(initiator, device)
        yield self.sim.timeout(self._latency(1))
        self._route_check(initiator, device)
        disk.dlocks.release(initiator, start_lba, length, device_now)
