"""Offline analysis of a finished run.

:mod:`repro.analysis.consistency` replays the trace and the disks'
histories against the safety invariants (I2 lost updates, I3 stale
reads, I4 unsynchronized multi-writer); :mod:`repro.analysis.availability`
extracts unavailability windows around injected faults;
:mod:`repro.analysis.report` renders the ASCII tables the benchmark
harness prints.
"""

from repro.analysis.consistency import ConsistencyAuditor, ConsistencyReport
from repro.analysis.availability import (
    AvailabilityReport,
    lock_handover_time,
    unavailability_after,
)
from repro.analysis.report import Table, format_table
from repro.analysis.timeline import (
    TimelineConfig,
    phase_occupancy,
    render_lease_timeline,
)

__all__ = [
    "AvailabilityReport",
    "ConsistencyAuditor",
    "ConsistencyReport",
    "Table",
    "TimelineConfig",
    "format_table",
    "lock_handover_time",
    "phase_occupancy",
    "render_lease_timeline",
    "unavailability_after",
]
