"""Seeded simulator of temporally smoothed subnetwork partitioning.

Mobile users roam a unit square served by fixed base stations; each time step
the network is split into subnetworks by spectral clustering of a blend of the
current and previous interference graphs, trading per-instant sum rate against
partition stability (fewer handovers).
"""

from .channel import (RadioParams, channel_gains, complex_channel, per_user_sinr,
                      sum_rate, user_rate)
from .clustering import (Partition, SpectralConfig, blended_laplacian,
                         initial_partition, kmeans_rows, smallest_eigenvectors,
                         temporal_smoothed_partition)
from .graph import AffinityGraph, build_graph
from .harness import (ConfigError, ExperimentConfig, ExperimentResult,
                      TrialResult, emit_outputs, load_config, parse_config_text,
                      run_monte_carlo, run_trial, summary_rows, trial_seed)
from .metrics import (KPI_NAMES, MetricsRecord, ZfbfResult, handover_count,
                      record_step, temporal_smoothness, zfbf_evaluation)
from .oracle import BudgetExceeded, brute_force_best, enumerate_partitions
from .topology import (Layout, MobilityParams, generate_layout, step_waypoint)

__version__ = "0.1.0"
