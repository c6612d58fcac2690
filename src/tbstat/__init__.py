"""Exact stationary statistics for token bucket filters.

A token bucket filter grants one token per period into a bounded bucket and
queues variable-size packets FCFS in a bounded buffer.  This package builds
the full Markov model of that device (state enumeration, rate and grant
matrices, partitioned generators), solves for its stationary behavior, and
derives occupancy tables, per-class loss ratios and waiting times.  A
discrete-event simulator driving the identical transition functions is
included for cross-validation, plus a CLI for scenario files.
"""

from .statespace import (
    FilterConfig,
    StateSpace,
    SystemState,
    TrafficSpec,
    Transitions,
    backlog,
    build_state_space,
    cardinality_bound,
    class_count,
    count_by_total,
    count_strings,
    enumerate_strings,
    reachable_indices,
)
from .dynamics import (
    FixedState,
    fixed_arrive,
    fixed_replenish,
    md1_step,
    net_coord,
    periodic_transfer_step,
    state_from_net_coord,
    var_arrive,
    var_replenish,
    var_table,
)
from .markov import (
    ArrivalDistribution,
    ConvergenceError,
    PartitionedGenerator,
    build_md1_chain,
    build_partitioned_generator,
    build_periodic_transfer_chain,
    build_rate_matrix,
    build_replenishment_matrix,
    expm_action,
    integrate_expm_action,
    stationary_dense,
    stationary_power,
)
from .analysis import (
    ClassMetrics,
    StationaryResult,
    class_backlog,
    class_metrics,
    loss_ratio,
    net_to_backlog_distribution,
    occupancy_table,
    solve_stationary,
    time_average,
    time_average_distribution,
    waiting_time,
)
from .des import (
    InsufficientData,
    InvariantChecker,
    InvariantViolation,
    SimStats,
    batch_confidence,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "TrafficSpec",
    "FilterConfig",
    "SystemState",
    "StateSpace",
    "Transitions",
    "enumerate_strings",
    "count_strings",
    "count_by_total",
    "cardinality_bound",
    "backlog",
    "class_count",
    "build_state_space",
    "reachable_indices",
    "FixedState",
    "fixed_replenish",
    "fixed_arrive",
    "net_coord",
    "state_from_net_coord",
    "periodic_transfer_step",
    "md1_step",
    "var_replenish",
    "var_table",
    "var_arrive",
    "ArrivalDistribution",
    "build_replenishment_matrix",
    "build_rate_matrix",
    "PartitionedGenerator",
    "build_partitioned_generator",
    "build_periodic_transfer_chain",
    "build_md1_chain",
    "expm_action",
    "integrate_expm_action",
    "stationary_power",
    "stationary_dense",
    "ConvergenceError",
    "StationaryResult",
    "solve_stationary",
    "net_to_backlog_distribution",
    "time_average",
    "time_average_distribution",
    "occupancy_table",
    "loss_ratio",
    "class_backlog",
    "waiting_time",
    "ClassMetrics",
    "class_metrics",
    "SimStats",
    "simulate",
    "batch_confidence",
    "InvariantChecker",
    "InvariantViolation",
    "InsufficientData",
    "__version__",
]
