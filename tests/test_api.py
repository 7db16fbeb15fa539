"""The package's public surface: what ``import classhedge`` exports."""

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
    "emit_probs_csv",
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


def test_all_is_pinned():
    assert classhedge.__all__ == PUBLIC_API


def test_every_exported_name_resolves():
    for name in classhedge.__all__:
        assert getattr(classhedge, name) is not None, name


def test_benchmark_names_stay_exported():
    assert set(BENCHMARK_NAMES) <= set(classhedge.__all__)


def test_per_round_internals_stay_in_core():
    from classhedge import core

    for name in ("LearningRate", "RoundStats", "center_losses",
                 "eta_ratio", "learning_rate", "round_stats"):
        assert name not in classhedge.__all__
        assert not hasattr(classhedge, name), name
        assert callable(getattr(core, name))
