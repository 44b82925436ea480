"""A GFS-flavoured client that synchronizes through device ``dlock``-s
(paper §5).

The Global File System takes *physical* range locks implemented by the
disk drive, with drive-enforced timeouts, instead of logical locks from
a locking authority.  This minimal client write-throughs under a dlock
and reads uncached, so its consistency relies entirely on the device:

- a failed client's dlock frees itself after its TTL (availability is
  bounded by the TTL, not by a server decision);
- there is no cache, hence no cache-coherence guarantee to lose — which
  is also why the paper finds dlocks "not adequate" for Storage Tank's
  cached, logically-locked design.

Used by experiment E10 as the device-timeout point of comparison.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, List, Optional, Tuple

from repro.net.san import SanFabric, SanUnreachableError
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.storage.dlock import DlockDeniedError
from repro.storage.disk import FencedIoError


class DlockClient:
    """Write-through client synchronized by device range locks."""

    def __init__(self, sim: Simulator, san: SanFabric, name: str,
                 device: str, clock: LocalClock,
                 dlock_ttl: float = 15.0,
                 retry_backoff: float = 0.2,
                 max_retries: int = 50,
                 trace: Optional[TraceRecorder] = None):
        self.sim = sim
        self.san = san
        self.name = name
        self.device = device
        self.clock = clock
        self.dlock_ttl = dlock_ttl
        self.retry_backoff = retry_backoff
        self.max_retries = max_retries
        self.trace = trace if trace is not None else san.trace
        san.attach_initiator(name)
        self._write_seq = itertools.count(1)
        self.ops_completed = 0
        self.denials = 0
        self.app_errors = 0

    def _device_now(self) -> float:
        # The TTL counter runs on the *device's* clock; we approximate the
        # device clock as the global timeline (drives have no skew model
        # of their own in this reproduction).
        return self.sim.now

    def write_range(self, start_lba: int, n_blocks: int,
                    ) -> Generator[Event, Any, Optional[str]]:
        """dlock-acquire, write through, release; returns the tag or None
        when the lock could not be obtained."""
        for _attempt in range(self.max_retries):
            try:
                yield from self.san.dlock_acquire(self.name, self.device,
                                                  start_lba, n_blocks,
                                                  self.dlock_ttl,
                                                  self._device_now())
                break
            except DlockDeniedError:
                self.denials += 1
                yield self.sim.timeout(self.retry_backoff)
            except (SanUnreachableError, FencedIoError):
                self.app_errors += 1
                return None
        else:
            self.app_errors += 1
            return None
        tag = f"{self.name}:d{next(self._write_seq)}"
        try:
            yield from self.san.write(self.name, self.device,
                                      {lba: tag for lba in
                                       range(start_lba, start_lba + n_blocks)})
            self.trace.emit(self.sim.now, "app.write.ack#dlock", self.name,
                            tag, list(range(start_lba, start_lba + n_blocks)))
            self.ops_completed += 1
        except (SanUnreachableError, FencedIoError):
            self.app_errors += 1
            return None
        finally:
            try:
                yield from self.san.dlock_release(self.name, self.device,
                                                  start_lba, n_blocks,
                                                  self._device_now())
            except (SanUnreachableError, FencedIoError):
                pass  # the TTL will free it
        return tag

    def read_range(self, start_lba: int, n_blocks: int,
                   ) -> Generator[Event, Any, List[Tuple[int, Optional[str]]]]:
        """Uncached read of a block range."""
        recs = yield from self.san.read(self.name, self.device,
                                        start_lba, n_blocks)
        out = [(r.lba, r.tag) for r in recs]
        for lba, tag in out:
            self.trace.emit(self.sim.now, "app.read#dlock", self.name,
                            lba, tag)
        self.ops_completed += 1
        return out
