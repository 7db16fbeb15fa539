"""The package's public surface: what ``import classhedge`` exports."""

import inspect

import classhedge

PUBLIC_API = [
    "Aggregator",
    "BoundReport",
    "ClassParams",
    "ConfigError",
    "ExperimentConfig",
    "InvariantViolation",
    "OutOfClassError",
    "ProtocolError",
    "RegretReport",
    "RoundDiagnostics",
    "StrategyPath",
    "TransitionKernel",
    "best_competitor",
    "best_prefix_losses",
    "bound_report",
    "class_budget",
    "cyclic_kernel",
    "emit_csv",
    "ewa_reference",
    "exhaustive_best",
    "fixed_kernel",
    "gamma_from_budget",
    "loss_generator",
    "make_kernel",
    "run_experiment",
    "run_sweep",
    "run_verification",
    "switching_kernel",
    "trajectory_reference",
]

# Names the benchmark in perfbench/ calls as ``classhedge.<name>``.
BENCHMARK_NAMES = [
    "Aggregator",
    "ExperimentConfig",
    "best_competitor",
    "best_prefix_losses",
    "bound_report",
    "gamma_from_budget",
    "loss_generator",
    "make_kernel",
    "run_sweep",
    "run_verification",
    "trajectory_reference",
]

# TransitionKernel's public names: its constructors and readers, and the tables it holds.
KERNEL_API = [
    "budget_bound",
    "class_seg",
    "classes",
    "expert_log_weights",
    "expert_of",
    "expert_starts",
    "from_dense",
    "index",
    "init_weights",
    "name",
    "num_classes",
    "num_experts",
    "one_per_expert",
    "present_experts",
    "structure",
    "successor_items",
]


def test_all_is_pinned():
    assert classhedge.__all__ == PUBLIC_API


def test_every_exported_name_resolves():
    for name in classhedge.__all__:
        assert getattr(classhedge, name) is not None, name


def test_benchmark_names_stay_exported():
    assert set(BENCHMARK_NAMES) <= set(classhedge.__all__)


def test_per_round_internals_stay_in_core():
    from classhedge import core

    for name in ("center_losses", "eta_ratio", "learning_rate", "round_stats"):
        assert name not in classhedge.__all__
        assert not hasattr(classhedge, name), name
        assert callable(getattr(core, name))


def test_kernel_constructors_take_no_budget():
    for build in (classhedge.TransitionKernel, classhedge.TransitionKernel.from_dense):
        assert "budget" not in inspect.signature(build).parameters


def test_kernel_names_are_pinned():
    for kernel in (classhedge.fixed_kernel(2), classhedge.TransitionKernel.from_dense("d", 1, [(0,)], [[1.0]])):
        assert sorted(name for name in dir(kernel) if not name.startswith("_")) == KERNEL_API
        for gone in ("tables", "class_list", "initial_weights"):
            assert not hasattr(kernel, gone), gone
