"""Tests for the package surface: ``tbstat`` exports each module's names."""

import tbstat
from tbstat import analysis, cli, des, dynamics, markov, oracle, statespace

# ``tbstat.__all__`` when it was written out by hand, before it was built
# from the modules' own lists.
HAND_WRITTEN = [
    "TrafficSpec", "FilterConfig", "SystemState", "StateSpace", "Transitions",
    "enumerate_strings", "count_strings", "count_by_total", "cardinality_bound",
    "backlog", "class_count", "build_state_space", "reachable_indices",
    "FixedState", "fixed_replenish", "fixed_arrive", "net_coord",
    "state_from_net_coord", "periodic_transfer_step", "md1_step",
    "var_replenish", "var_table", "var_arrive", "ArrivalDistribution",
    "build_replenishment_matrix", "build_rate_matrix", "PartitionedGenerator",
    "build_partitioned_generator", "build_periodic_transfer_chain",
    "build_md1_chain", "expm_action", "integrate_expm_action",
    "stationary_power", "stationary_dense", "ConvergenceError",
    "StationaryResult", "solve_stationary", "net_to_backlog_distribution",
    "time_average", "time_average_distribution", "occupancy_table",
    "loss_ratio", "class_backlog", "waiting_time", "ClassMetrics",
    "class_metrics", "SimStats", "simulate", "batch_confidence",
    "InvariantChecker", "InvariantViolation", "InsufficientData", "__version__",
]


def test_the_package_exports_every_module_name_once():
    exported = tbstat.__all__
    assert len(exported) == len(set(exported))
    for module in (statespace, dynamics, markov, analysis, oracle, des):
        for name in module.__all__:
            assert name in exported, (module.__name__, name)
            assert getattr(tbstat, name) is getattr(module, name), name
    assert len(set(HAND_WRITTEN)) == 53
    assert set(HAND_WRITTEN) <= set(exported)


def test_the_run_path_modules_bind_no_oracle():
    # the full-space references live in ``oracle`` alone
    for module in (markov, analysis, cli):
        bound = set(oracle.__all__) & set(vars(module))
        assert not bound, (module.__name__, bound)
