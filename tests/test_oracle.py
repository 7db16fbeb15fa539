"""Tests for the brute-force references and the bound evaluator."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from classhedge import oracle
from classhedge.aggregator import Aggregator
from classhedge.core import ConfigError, InvariantViolation, bound_range, bound_var
from classhedge.harness import _log_dev
from classhedge.kernels import TransitionKernel, best_competitor, cyclic_kernel, fixed_kernel, switching_kernel
from classhedge.oracle import (
    BoundReport,
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


def assert_matches_engine(kernel, table, gamma) -> np.ndarray:
    """Run the engine beside trajectory_reference: the same -inf entries, the
    finite ones within 1e-9, before every round and after the last."""
    logs = trajectory_reference(kernel, table, gamma)
    agg = Aggregator(kernel, gamma)
    for t in range(len(table) + 1):
        assert _log_dev(agg.log_weights(), logs[t]) <= 1e-9, f"round {t + 1}"
        if t < len(table):
            agg.probabilities()
            agg.observe(table[t])
    return logs


@pytest.mark.parametrize(
    "oracle",
    [lambda table: ewa_reference(table, 1.0), lambda table: trajectory_reference(fixed_kernel(2), table, 1.0)],
    ids=["ewa_reference", "trajectory_reference"],
)
def test_oracles_stop_like_the_engine_on_an_overflowing_range(oracle):
    # the range check runs before phi is squared, so numpy never warns of the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=r"^round 1: score range 1e\+200 overflows when squared$"):
            oracle(np.array([[0.0, 1e200], [1.0, 0.0]]))


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

    def test_matches_engine_on_switching_kernel(self):
        # several successors per class: the weights of different classes merge
        table = np.random.default_rng(32).standard_normal((12, 2))
        assert_matches_engine(switching_kernel(2, 0.3), table, 1.0)

    def test_matches_engine_on_merging_deterministic_kernel(self):
        # both classes hop to (0,): deterministic but not a bijection, so (1,) gets no weight
        kernel = TransitionKernel(
            "funnel", 2, [(0,), (1,)],
            {(0,): [((0,), 1.0)], (1,): [((0,), 1.0)]},
        )
        logs = assert_matches_engine(kernel, np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]), 1.0)
        assert np.isneginf(logs[1:, 1]).all() and np.isfinite(logs[:, 0]).all()

    def test_destination_whose_predecessors_all_start_at_zero(self):
        # (1, 0) is reached only from (1,), which starts at zero weight: after round 1
        # its every incoming term is -inf, and from round 2 on it has weight again
        classes = [(0,), (1,), (1, 0)]
        matrix = [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        kernel = TransitionKernel.from_dense(
            "late", 2, classes, matrix, init_weights={(0,): 1.0, (1,): 0.0, (1, 0): 0.0}
        )
        logs = assert_matches_engine(kernel, np.random.default_rng(33).random((5, 2)), 0.8)
        assert np.isneginf(logs[1]).tolist() == [False, False, True]
        assert np.isfinite(logs[2:]).all()


class TestExhaustiveBest:
    def test_fixed_kernel_best_constant_expert(self):
        table = np.array([[0.9, 0.1], [0.8, 0.3], [0.1, 0.2]])
        path, loss = exhaustive_best(fixed_kernel(2), table)
        assert path == ((1,), (1,), (1,))
        assert loss == pytest.approx(0.6, rel=1e-12)

    def test_agrees_with_dp_on_cyclic(self):
        table = np.random.default_rng(9).random((5, 3))
        kernel = cyclic_kernel(3)
        assert exhaustive_best(kernel, table) == best_competitor(kernel, table)

    def test_agrees_with_dp_on_switching_all_paths(self):
        table = np.random.default_rng(10).random((4, 2))
        kernel = switching_kernel(2, 0.25)  # all 16 expert paths are in-class
        assert exhaustive_best(kernel, table) == best_competitor(kernel, table)

    @pytest.mark.parametrize("experts", [1, 2])
    def test_long_table_with_few_paths(self, experts):
        # 1200 rounds but only `experts` paths: depth must not be bounded by the call stack
        table = np.random.default_rng(11).random((1200, experts))
        assert exhaustive_best(fixed_kernel(experts), table) == best_competitor(fixed_kernel(experts), table)
        assert exhaustive_best(fixed_kernel(experts), np.zeros((1200, experts)))[0] == ((0,),) * 1200

    @pytest.mark.parametrize(
        "kernel", [fixed_kernel(2), cyclic_kernel(2), switching_kernel(2, 0.5)], ids=["fixed", "cyclic", "switching"]
    )
    def test_every_path_past_the_double_range_keeps_the_first_path(self, kernel):
        # every in-class path sums past the largest double; no RuntimeWarning may be raised
        table = [[1e308, 1e308]] * 2
        path, loss = exhaustive_best(kernel, table)
        assert path == (kernel.classes[0],) * 2 and loss == math.inf
        with np.errstate(over="ignore"):  # the DP warns when its sums overflow
            assert best_competitor(kernel, table) == (path, loss)

    def test_refuses_past_limit(self):
        with pytest.raises(ValueError, match="16 in-class paths exceed"):
            exhaustive_best(switching_kernel(2, 0.5), np.zeros((4, 2)), limit=10)


def test_oracles_read_no_private_name():
    # the oracles see a kernel only through its public names, never the engine's own tables
    tree = ast.parse(Path(oracle.__file__).read_text())
    private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
    assert private == []


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

    @pytest.mark.parametrize(
        "rounds, experts",
        [(1, 9000), (3, 9000), (5, 8193), (100, 512), (2049, 8), (7, 4097), (1, 8), (60, 1),
         (10_000, 8), (2049, 16), (2049, 17)],
    )
    def test_blockwise_variances_match_the_whole_table(self, rounds, experts):
        # bound_report squares the deviations a block of rows at a time and reads
        # the row extremes a block at a time (narrow tables) or with reduceat (wide
        # ones); the reference takes whole-table einsums and axis=1 extremes, on
        # scaled normals and on ties of signed zeros
        rng = np.random.default_rng(rounds * experts)
        probs = rng.random((rounds, experts))
        probs /= probs.sum(axis=1, keepdims=True)
        normals = rng.standard_normal((rounds, experts)) * 10.0 ** rng.uniform(-50, 50, (rounds, 1))
        ties = rng.integers(-1, 2, (rounds, experts)).astype(float)
        ties[rng.random((rounds, experts)) < 0.4] = -0.0
        ties[rng.random((rounds, experts)) < 0.2] = 0.0
        ties[0] = np.where(rng.random(experts) < 0.5, -0.0, 0.0)  # a round of zeros of both signs
        for losses in (normals, ties, np.where(rng.random((rounds, experts)) < 0.5, -0.0, 0.0)):
            mu = np.einsum("tm,tm->t", probs, losses)
            sq = losses - mu[:, None]
            sq *= sq
            v_star = math.fsum(np.einsum("tm,tm->t", probs, sq).tolist())
            ranges = (losses.max(axis=1) - mu) - (losses.min(axis=1) - mu)
            d_top, sum_d_sq = float(ranges.max()), math.fsum((ranges * ranges).tolist())
            want = BoundReport(
                2.0, d_top, v_star, sum_d_sq,
                float(bound_var(2.0, d_top, v_star)), float(bound_range(2.0, d_top, sum_d_sq)),
            )
            assert repr(bound_report(2.0, probs, losses)) == repr(want)

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

    @pytest.mark.parametrize(
        "table, cell, value, message",
        [
            ("losses", (6, 1), math.nan, "round 7: losses contain NaN or infinite"),
            ("losses", (6, 0), -math.inf, "round 7: losses contain NaN or infinite"),
            ("probs", (6, 0), 0.4, "round 7: probabilities must be nonnegative and sum to 1, not 0.9"),
            ("probs", (6, 0), -0.5, "round 7: probabilities must be nonnegative and sum to 1, not 0.0"),
        ],
    )
    def test_bad_telemetry_row_named_by_round(self, table, cell, value, message):
        arrays = {"probs": np.full((9, 2), 0.5), "losses": np.tile([0.0, 1.0], (9, 1))}
        arrays[table][cell] = value
        arrays[table][8] = arrays[table][cell[0]]
        with pytest.raises(ValueError, match=message):
            bound_report(2.0, arrays["probs"], arrays["losses"])

    def test_constant_rounds_have_exactly_zero_variance(self):
        # einsum's mean of a constant row can miss the constant; it is clipped back, as the engine does
        report = bound_report(2.0, np.full((4, 7), 1 / 7), np.full((4, 7), 3.3e7))
        assert (report.D, report.v_star, report.sum_d_sq, report.bound_var) == (0.0, 0.0, 0.0, 0.0)

    def test_overflowing_range_stops_like_the_engine(self):
        losses = np.tile([0.0, 1.0], (5, 1))
        losses[2] = losses[4] = [0.0, 1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match=r"^round 3: score range 1e\+200 overflows when squared$"):
                bound_report(2.0, np.full((5, 2), 0.5), losses)

    def test_squares_summing_past_the_double_range_give_infinite_bounds(self):
        # each round's squared range 1e308 is finite, two of them are not; the
        # variances 2.5e307 sum past the double range at nine rounds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = bound_report(2.0, np.full((2, 2), 0.5), [[0, 1e154], [0, 1e154]])
            assert (report.D, report.v_star, report.sum_d_sq) == (1e154, 5e307, math.inf)
            assert (report.bound_var, report.bound_range) == (float(bound_var(2.0, 1e154, 5e307)), math.inf)
            report = bound_report(2.0, np.full((9, 2), 0.5), [[0, 1e154]] * 9)
            assert (report.v_star, report.sum_d_sq, report.bound_var) == (math.inf, math.inf, math.inf)

    def test_budget_below_one_rejected(self):
        with pytest.raises(ConfigError):
            bound_report(0.5, np.ones((1, 1)), np.ones((1, 1)))
