"""Tests for the brute-force references and the bound evaluator."""

import math

import numpy as np
import pytest

from classhedge.aggregator import Aggregator
from classhedge.core import ConfigError
from classhedge.kernels import TransitionKernel, best_competitor, cyclic_kernel, fixed_kernel, switching_kernel
from classhedge.oracle import (
    bound_report,
    ewa_reference,
    exhaustive_best,
    trajectory_reference,
)


def straight_loop_ewa(table: np.ndarray, gamma: float) -> np.ndarray:
    """A second, deliberately naive rendering of adaptive-rate weighting."""
    rounds, experts = table.shape
    out = [np.full(experts, 1.0 / experts)]
    cum = np.zeros(experts)
    d_max = v_sum = 0.0
    for t in range(rounds):
        p = out[-1]
        phi = table[t] - float(np.dot(p, table[t]))
        cum = cum + phi
        d_max = max(d_max, max(phi) - min(phi))
        v_sum += sum(q * f * f for q, f in zip(p, phi))
        if v_sum + d_max == 0.0:
            out.append(p)
            continue
        eta = gamma / math.sqrt(v_sum + gamma**2 * d_max**2)
        weights = [math.exp(-eta * (c - cum.min())) for c in cum]
        total = sum(weights)
        out.append(np.array([w / total for w in weights]))
    return np.array(out)


class TestEwaReference:
    def test_identical_columns_stay_uniform(self):
        table = np.tile([[0.3], [0.9], [0.1]], (1, 4))
        probs = ewa_reference(table, 0.5)
        np.testing.assert_allclose(probs, 0.25, rtol=1e-12)

    def test_two_expert_one_round_closed_form(self):
        probs = ewa_reference(np.array([[0.0, 1.0]]), 0.4)
        eta = 0.4 / math.sqrt(0.25 + 0.4**2)  # phi = [-1/2, 1/2]: d = 1, v = 1/4
        expected = np.array([math.exp(eta / 2), math.exp(-eta / 2)])
        np.testing.assert_allclose(probs[1], expected / expected.sum(), rtol=1e-12)

    def test_matches_independent_straight_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            table = rng.random((int(rng.integers(1, 30)), int(rng.integers(2, 6))))
            gamma = float(rng.uniform(0.3, 3.0))
            np.testing.assert_allclose(
                ewa_reference(table, gamma), straight_loop_ewa(table, gamma), rtol=1e-9
            )

    def test_matches_adaptive_engine(self):
        rng = np.random.default_rng(8)
        table = rng.random((25, 3))
        probs = ewa_reference(table, 0.3)
        agg = Aggregator(fixed_kernel(3), 0.3)
        for t in range(25):
            np.testing.assert_allclose(agg.probabilities(), probs[t], atol=1e-9)
            agg.observe(table[t])
        np.testing.assert_allclose(agg.probabilities(), probs[25], atol=1e-9)

    def test_rejects_invalid_gamma(self):
        for gamma in (0.0, -2.0, math.inf, math.nan, "1.0"):
            with pytest.raises(ConfigError):
                ewa_reference(np.zeros((1, 2)), gamma)


class TestTrajectoryReference:
    def test_single_class_weight_stays_one(self):
        logs = trajectory_reference(cyclic_kernel(1), np.zeros((4, 1)), 1.0)
        np.testing.assert_allclose(logs[1:], 0.0, atol=1e-15)

    def test_constant_losses_keep_equal_weights(self):
        logs = trajectory_reference(cyclic_kernel(2), np.full((6, 2), 3.3), 1.0)
        for row in logs[1:]:
            np.testing.assert_allclose(row, row[0], atol=1e-15)

    def test_matches_engine_on_cyclic_kernel(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            experts = int(rng.integers(1, 5))
            rounds = int(rng.integers(1, 16))
            table = rng.standard_normal((rounds, experts))
            gamma = float(rng.uniform(0.4, 2.5))
            kernel = cyclic_kernel(experts)
            logs = trajectory_reference(kernel, table, gamma)
            agg = Aggregator(kernel, gamma)
            for t in range(rounds):
                np.testing.assert_allclose(agg.log_weights(), logs[t], atol=1e-9)
                agg.probabilities()
                agg.observe(table[t])
            np.testing.assert_allclose(agg.log_weights(), logs[rounds], atol=1e-9)

    def test_rejects_invalid_gamma(self):
        for gamma in (0.0, -2.0, math.inf, math.nan, "1.0"):
            with pytest.raises(ConfigError):
                # no rounds: the check must not wait for the first rate
                trajectory_reference(cyclic_kernel(2), np.zeros((0, 2)), gamma)

    def test_rejects_stochastic_kernel(self):
        with pytest.raises(ValueError, match="not deterministic"):
            trajectory_reference(switching_kernel(2, 0.3), np.zeros((2, 2)), 1.0)

    def test_rejects_merging_deterministic_kernel(self):
        # both classes hop to (0,): deterministic but not a bijection
        kernel = TransitionKernel(
            "funnel", 2, [(0,), (1,)],
            {(0,): [((0,), 1.0)], (1,): [((0,), 1.0)]},
        )
        with pytest.raises(ValueError, match="merges"):
            trajectory_reference(kernel, np.zeros((2, 2)), 1.0)


class TestExhaustiveBest:
    def test_fixed_kernel_best_constant_expert(self):
        table = np.array([[0.9, 0.1], [0.8, 0.3], [0.1, 0.2]])
        path = exhaustive_best(fixed_kernel(2), table)
        assert path.selections == (1, 1, 1)
        assert path.cum_loss == pytest.approx(0.6, rel=1e-12)

    def test_agrees_with_dp_on_cyclic(self):
        table = np.random.default_rng(9).random((5, 3))
        kernel = cyclic_kernel(3)
        truth = exhaustive_best(kernel, table)
        path, loss = best_competitor(kernel, table)
        assert truth.classes == path and truth.cum_loss == loss

    def test_agrees_with_dp_on_switching_all_paths(self):
        table = np.random.default_rng(10).random((4, 2))
        kernel = switching_kernel(2, 0.25)  # all 16 expert paths are in-class
        truth = exhaustive_best(kernel, table)
        path, loss = best_competitor(kernel, table)
        assert truth.classes == path and truth.cum_loss == loss

    def test_refuses_past_limit(self):
        with pytest.raises(ValueError, match="16 in-class paths exceed"):
            exhaustive_best(switching_kernel(2, 0.5), np.zeros((4, 2)), limit=10)


class TestBoundReport:
    def test_zero_variance_run(self):
        probs = np.tile([1.0, 0.0], (5, 1))
        losses = np.tile([0.0, 1.0], (5, 1))
        report = bound_report(2.0, probs, losses)
        assert report.v_star == 0.0
        assert report.bound_var == pytest.approx(2.0 * 1.0, rel=1e-15)

    def test_unit_ingredients(self):
        # four rounds of p=[.5,.5], l=[0,1]: D=1, V*=4*0.25=1, sum_d_sq=4
        probs = np.tile([0.5, 0.5], (4, 1))
        losses = np.tile([0.0, 1.0], (4, 1))
        report = bound_report(1.0, probs, losses)
        assert report.D == 1.0 and report.v_star == pytest.approx(1.0, rel=1e-14)
        assert report.bound_var == pytest.approx(3.4, rel=1e-12)
        assert report.bound_range == pytest.approx(3.4, rel=1e-12)

    def test_eight_expert_cyclic_budget_value(self):
        rng = np.random.default_rng(12)
        probs = np.full((10, 8), 1 / 8)
        losses = rng.random((10, 8))
        w = 1 + 2 * math.log(8)
        report = bound_report(w, probs, losses)
        assert report.w_budget == pytest.approx(w, rel=1e-15)
        assert report.bound_var == pytest.approx(
            w * report.D + 2.4 * math.sqrt(w * report.v_star), rel=1e-14
        )

    def test_variance_never_exceeds_quarter_ranges(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            rounds, experts = int(rng.integers(1, 40)), int(rng.integers(2, 6))
            raw = rng.random((rounds, experts)) + 1e-6
            probs = raw / raw.sum(axis=1, keepdims=True)
            losses = rng.standard_normal((rounds, experts)) * rng.uniform(0.1, 5)
            report = bound_report(1.5, probs, losses)
            assert report.v_star <= report.sum_d_sq / 4 + 1e-12
            assert report.bound_var <= report.bound_range + 1e-12

    def test_inconsistent_telemetry_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            bound_report(1.0, np.zeros((3, 2)), np.zeros((2, 2)))

    def test_budget_below_one_rejected(self):
        with pytest.raises(ConfigError):
            bound_report(0.5, np.ones((1, 1)), np.ones((1, 1)))
