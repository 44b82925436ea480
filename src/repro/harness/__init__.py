"""Experiment harness.

One function per experiment (E1-E10), each regenerating a figure,
scenario or quantitative claim from the paper — see DESIGN.md §4 for
the experiment index.  Every function returns
:class:`repro.analysis.report.Table` objects that the benchmarks print
and EXPERIMENTS.md records.

Run from the command line::

    python -m repro.harness e2          # one experiment
    python -m repro.harness all         # everything
"""

from repro.harness.ablations import (
    ablation_a1_tau_sweep,
    ablation_a2_phase_boundaries,
    ablation_a3_detection,
    ablation_a4_ack_while_expiring,
)
from repro.harness.experiments import (
    experiment_e1_direct_access,
    experiment_e2_two_network,
    experiment_e3_fencing_inadequacy,
    experiment_e4_theorem31,
    experiment_e5_lease_phases,
    experiment_e6_nack,
    experiment_e7_overhead,
    experiment_e8_vlease_scaling,
    experiment_e9_protocol_comparison,
    experiment_e10_slow_client,
    experiment_e11_cluster_takeover,
)

__all__ = [
    "ablation_a1_tau_sweep",
    "ablation_a2_phase_boundaries",
    "ablation_a3_detection",
    "ablation_a4_ack_while_expiring",
    "experiment_e1_direct_access",
    "experiment_e2_two_network",
    "experiment_e3_fencing_inadequacy",
    "experiment_e4_theorem31",
    "experiment_e5_lease_phases",
    "experiment_e6_nack",
    "experiment_e7_overhead",
    "experiment_e8_vlease_scaling",
    "experiment_e9_protocol_comparison",
    "experiment_e10_slow_client",
    "experiment_e11_cluster_takeover",
]
