"""Hierarchical precoding simulator for multi-cell massive MIMO downlink."""

from .corrmat import (
    CorrelationMatrix,
    CorrelationSet,
    build_hotspot_network,
    dump_correlation_set,
    load_correlation_set,
    one_ring_correlation,
    path_gain_log_distance,
    random_clustered_correlation,
    sample_channel,
)
from .det_equiv import (
    DEResult,
    FullDEResult,
    GainCache,
    de_rate_power,
    full_de,
    projected_factor,
    solve_effective_gains,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from .harness import MonteCarloReport, comp_baseline, ffr_baseline, monte_carlo_policy
from .precoder import (
    CompositeControl,
    inner_precoders,
    instantaneous_rate,
    interference_nullspace_basis,
    outer_precoder,
    rzf_inner_precoder,
    transmit_power,
)
from .scheduler import (
    ControlPolicy,
    UtilityFunction,
    alpha_fair_utility,
    best_control_exhaustive,
    best_control_greedy,
    optimize_policy,
    optimize_time_sharing,
    pfs_utility,
    sum_rate_utility,
    waterfill,
    weighted_sum_rate,
)
from .topology import TopologyGraph, build_topology, scheduled_neighbors, theta_from_db

__version__ = "0.1.0"
