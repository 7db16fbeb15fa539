"""The package's public surface: what ``import classhedge`` exports."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import classhedge

PUBLIC_API = [
    "Aggregator",
    "ConfigError",
    "ExperimentConfig",
    "InvariantViolation",
    "OutOfClassError",
    "ProtocolError",
    "RegretReport",
    "TransitionKernel",
    "best_competitor",
    "best_prefix_losses",
    "bound_report",
    "class_budget",
    "cyclic_kernel",
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

# TransitionKernel's public names: its constructors and readers, and the tables a user reads.
KERNEL_API = [
    "budget_bound",
    "classes",
    "from_dense",
    "init_weights",
    "name",
    "num_classes",
    "num_experts",
    "successor_items",
]

# Names the top level no longer re-exports, and the module each stays in (None: deleted).
DROPPED = {
    "RoundDiagnostics": "aggregator",
    "ClassParams": "kernels",
    "BoundReport": "oracle",
    "StrategyPath": None,
    "ewa_reference": "oracle",
    "exhaustive_best": "oracle",
    "emit_csv": "harness",
}


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


@pytest.mark.parametrize("name, module", DROPPED.items())
def test_dropped_names_left_the_top_level(name, module):
    assert name not in classhedge.__all__
    assert not hasattr(classhedge, name), name
    if module is None:
        for owner in ("aggregator", "core", "harness", "kernels", "oracle"):
            assert not hasattr(importlib.import_module(f"classhedge.{owner}"), name), owner
    else:
        assert getattr(importlib.import_module(f"classhedge.{module}"), name) is not None


def test_readme_public_api_list_is_all():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1]
    # the bullet list: from its first bullet to the first blank line
    listed = section[section.index("\n- "):].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(classhedge.__all__)


def test_regret_report_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(classhedge.RegretReport)] == [
        "config", "gamma", "w_budget", "expected_loss", "realized_loss", "best_cumloss", "exp_regret",
        "real_regret", "bound_var", "bound_range", "eta", "D", "V", "sum_d_sq", "probs", "losses",
        "selections",
    ]


def test_kernel_constructors_take_no_budget():
    for build in (classhedge.TransitionKernel, classhedge.TransitionKernel.from_dense):
        assert "budget" not in inspect.signature(build).parameters


def test_kernel_names_are_pinned():
    for kernel in (classhedge.fixed_kernel(2), classhedge.TransitionKernel.from_dense("d", 1, [(0,)], [[1.0]])):
        assert sorted(name for name in dir(kernel) if not name.startswith("_")) == KERNEL_API
        for gone in ("tables", "class_list", "initial_weights"):
            assert not hasattr(kernel, gone), gone
