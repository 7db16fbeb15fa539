"""Acceptance suite: one test per criterion, each printing a PASS line.

Stated tolerances and runtime budgets are pinned in the assertions.  The
engine additionally enforces the rate-monotonicity and boundedness
conditions on every round of every run here; a single internal violation
aborts the offending run and fails its criterion.
"""

import math
import time

import numpy as np
import pytest

from classhedge.aggregator import Aggregator
from classhedge.harness import ExperimentConfig, emit_csv, probs_csv_path, run_experiment
from classhedge.kernels import best_competitor, cyclic_kernel, fixed_kernel, switching_kernel
from classhedge.oracle import bound_report, ewa_reference, exhaustive_best, trajectory_reference

SWEEP_SEEDS = 20
SWEEP_ROUNDS = 10_000


def _drive_probs(kernel, gamma, table):
    agg = Aggregator(kernel, gamma)
    out = np.empty_like(table)
    for t in range(len(table)):
        out[t] = agg.probabilities()
        agg.observe(table[t])
    return out


@pytest.fixture(scope="module")
def moving_rate_sweep():
    """20-seed sweep of the moving-rate setup; shared by criteria 5-7."""
    start = time.monotonic()
    reports = [
        run_experiment(
            ExperimentConfig(
                experts=8,
                rounds=SWEEP_ROUNDS,
                kernel="cyclic",
                gamma="auto",
                loss_gen="adversarial-cyclic",
                seed=seed,
            )
        )
        for seed in range(SWEEP_SEEDS)
    ]
    return reports, time.monotonic() - start


@pytest.fixture(scope="module")
def assorted_runs():
    """Shorter runs across kernels and generators, for the run-wide checks."""
    configs = [
        ExperimentConfig(experts=3, rounds=400, kernel="fixed", loss_gen="iid-uniform", seed=100),
        ExperimentConfig(experts=5, rounds=400, kernel="cyclic", loss_gen="gaussian-drift", seed=101),
        ExperimentConfig(
            experts=4, rounds=400, kernel="switching",
            kernel_params={"switch_weight": 0.05},
            loss_gen="adversarial-switching", loss_params={"period": 80}, seed=102,
        ),
        ExperimentConfig(experts=2, rounds=300, kernel="cyclic", loss_gen="adversarial-cyclic", seed=103),
        ExperimentConfig(
            experts=6, rounds=300, kernel="fixed",
            loss_gen="iid-uniform", loss_params={"offset": -5.0, "scale": 200.0}, seed=104,
        ),
    ]
    return [run_experiment(cfg) for cfg in configs]


def test_criterion_1_translation_and_scale_invariance():
    """Per-round translations plus global scaling leave the probabilities
    within 1e-9 relative, over 50 random configurations, in under a minute."""
    start = time.monotonic()
    rng = np.random.default_rng(20260801)
    kernels = ("fixed", "cyclic", "switching")
    for case in range(50):
        experts = int(rng.integers(2, 9))
        rounds = int(rng.integers(100, 2001))
        name = kernels[case % 3]
        if name == "fixed":
            kernel, gamma = fixed_kernel(experts), float(rng.uniform(0.5, 2.0))
        elif name == "cyclic":
            kernel, gamma = cyclic_kernel(experts), float(rng.uniform(0.5, 2.0))
        else:
            kernel, gamma = switching_kernel(experts, float(rng.uniform(0.02, 0.3))), 1.0
        table = rng.random((rounds, experts))
        shifts = rng.uniform(-1e3, 1e3, size=(rounds, 1))
        baseline = _drive_probs(kernel, gamma, table)
        for scale in (1e-3, 1.0, 1e3):
            transformed = _drive_probs(kernel, gamma, scale * (table + shifts))
            np.testing.assert_allclose(
                transformed, baseline, rtol=1e-9, atol=1e-250,
                err_msg=f"config {case}: kernel={name} M={experts} T={rounds} s={scale}",
            )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"invariance sweep took {elapsed:.1f}s, budget is 60s"
    print(f"\nPASS criterion 1: translation/scale invariance (50 configs, {elapsed:.1f}s)")


def test_criterion_2_ewa_reduction():
    """Fixed kernel with the adaptive rate equals the closed-form
    adaptive-weighting reference to 1e-9 on 100 random tables."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        experts = int(rng.integers(1, 6))
        rounds = int(rng.integers(1, 51))
        table = rng.uniform(-2, 2, size=(rounds, experts))
        gamma = float(rng.uniform(0.3, 3.0))
        reference = ewa_reference(table, gamma)
        agg = Aggregator(fixed_kernel(experts), gamma)
        for t in range(rounds):
            assert np.abs(agg.probabilities() - reference[t]).max() <= 1e-9
            agg.observe(table[t])
        assert np.abs(agg.probabilities() - reference[rounds]).max() <= 1e-9
    print("\nPASS criterion 2: adaptive engine matches the closed-form weighting reference")


def test_criterion_3_trajectory_equivalence():
    """Cyclic kernel with the adaptive rate matches the per-trajectory
    recursion's class weights to 1e-9 over 100 seeded runs."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        experts = int(rng.integers(1, 5))
        rounds = int(rng.integers(1, 33))
        table = rng.standard_normal((rounds, experts)) * float(rng.uniform(0.2, 5.0))
        gamma = float(rng.uniform(0.3, 3.0))
        kernel = cyclic_kernel(experts)
        reference = trajectory_reference(kernel, table, gamma)
        agg = Aggregator(kernel, gamma)
        for t in range(rounds):
            assert np.abs(agg.log_weights() - reference[t]).max() <= 1e-9
            agg.probabilities()
            agg.observe(table[t])
        assert np.abs(agg.log_weights() - reference[rounds]).max() <= 1e-9
    print("\nPASS criterion 3: adaptive engine matches per-trajectory recursion")


def test_criterion_4_competitor_dp_exactness():
    """The competitor DP equals exhaustive enumeration exactly on all
    built-in kernels over 200 random tables (M <= 3, T <= 6)."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        experts = int(rng.integers(1, 4))
        rounds = int(rng.integers(1, 7))
        table = rng.random((rounds, experts))
        kernels = [fixed_kernel(experts), cyclic_kernel(experts)]
        if experts >= 2:
            kernels.append(switching_kernel(experts, float(rng.uniform(0.05, 0.5))))
        for kernel in kernels:
            path, loss = best_competitor(kernel, table)
            truth = exhaustive_best(kernel, table)
            assert path == truth.classes
            assert loss == truth.cum_loss
    print("\nPASS criterion 4: competitor DP equals exhaustive enumeration")


def test_criterion_5_moving_rate_bound_reproduction(moving_rate_sweep):
    """M=8 cyclic class, auto gamma, adversarial moving-rate stream, 20
    seeds: expected regret stays below the variance bound at every round,
    and regret grows sublinearly (regret(T)/regret(T/4) <= 2.5)."""
    reports, elapsed = moving_rate_sweep
    w_expected = 1 + 2 * math.log(8)
    gamma_expected = math.sqrt(w_expected / (2 * (math.e - 2)))
    for seed, report in enumerate(reports):
        assert report.gamma == pytest.approx(gamma_expected, rel=1e-15)
        assert report.w_budget == pytest.approx(w_expected, rel=1e-15)
        breaches = np.nonzero(report.exp_regret > report.bound_var)[0]
        assert breaches.size == 0, (
            f"seed {seed}: regret exceeds the bound at rounds {breaches[:5] + 1}"
        )
        quarter = report.exp_regret[SWEEP_ROUNDS // 4 - 1]
        final = report.exp_regret[-1]
        assert quarter > 0, f"seed {seed}: no regret accumulated by T/4"
        assert final / quarter <= 2.5, f"seed {seed}: regret grew superlinearly"
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s, budget is 120s"
    print(f"\nPASS criterion 5: moving-rate bound holds on 20 seeds ({elapsed:.1f}s)")


def test_criterion_6_rate_conditions_every_round(moving_rate_sweep, assorted_runs):
    """eta is nonincreasing and -eta*phi <= 1 + 1e-12 at every round of
    every acceptance run (the engine also aborts on any internal breach)."""
    reports = moving_rate_sweep[0] + assorted_runs
    for report in reports:
        eta = report.eta
        finite = np.isfinite(eta)
        assert np.all(np.diff(eta[finite]) <= 0.0)
        mu = np.einsum("tm,tm->t", report.probs, report.losses)
        phi = report.losses - mu[:, None]
        worst = float((-eta[finite, None] * phi[finite]).max()) if finite.any() else 0.0
        assert worst <= 1.0 + 1e-12
    print(f"\nPASS criterion 6: rate conditions hold on all {len(reports)} runs")


def test_criterion_7_variance_bound_dominance(moving_rate_sweep, assorted_runs):
    """V* never exceeds a quarter of the summed squared ranges, so the
    variance bound refines the range bound, per round and at the horizon."""
    reports = moving_rate_sweep[0] + assorted_runs
    for report in reports:
        assert np.all(report.V <= report.sum_d_sq / 4.0 + 1e-12)
        assert np.all(report.bound_var <= report.bound_range + 1e-12)
        final = bound_report(report.w_budget, report.probs, report.losses)
        assert final.v_star <= final.sum_d_sq / 4.0 + 1e-12
        assert final.bound_var <= final.bound_range + 1e-12
    print(f"\nPASS criterion 7: variance bound dominates on all {len(reports)} runs")


def test_criterion_8_byte_identical_reproduction(tmp_path):
    """Identical config and seed reproduce byte-identical CSVs."""
    config = ExperimentConfig(
        experts=5,
        rounds=500,
        kernel="cyclic",
        loss_gen="adversarial-cyclic",
        seed=99,
        debug_probs=True,
    )
    paths = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.csv"
        report = run_experiment(config)
        emit_csv(report, out)
        from classhedge.harness import emit_probs_csv

        emit_probs_csv(report, probs_csv_path(out))
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert probs_csv_path(paths[0]).read_bytes() == probs_csv_path(paths[1]).read_bytes()
    print("\nPASS criterion 8: identical config and seed give byte-identical CSVs")
