"""Unit and property tests for the scalar round math."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classhedge import (
    Aggregator,
    TransitionKernel,
    best_competitor,
    best_prefix_losses,
    bound_report,
    class_budget,
    cyclic_kernel,
    fixed_kernel,
    loss_generator,
    make_kernel,
    run_experiment,
    run_sweep,
    switching_kernel,
    trajectory_reference,
)
from classhedge.harness import ExperimentConfig, emit_csv
from classhedge.oracle import ewa_reference, exhaustive_best
from classhedge.core import (
    DEGENERATE_ETA,
    TWO_E_MINUS_2,
    ConfigError,
    as_budget,
    as_loss_array,
    as_simplex,
    center_losses,
    eta_ratio,
    gamma_from_budget,
    learning_rate,
    round_stats,
)

finite_losses = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


def simplex_for(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.random(n) + 1e-3
    return raw / raw.sum()


def centered(losses, probs):
    """The centered scores phi of ``center_losses``, from lists."""
    l, p = np.asarray(losses, dtype=float), np.asarray(probs, dtype=float)
    return center_losses(l, p, float(l.min()), float(l.max()), 1)[1]


def ratio_of(current, previous):
    """The mixing exponent eta_t / eta_{t-1} of ``eta_ratio``."""
    return eta_ratio(current, previous)[1]


def fold(phi, probs, D=0.0, V=0.0, carry=0.0):
    """One round of statistics as the engine forms them: (d, v, D, V, carry)."""
    phi = np.asarray(phi, dtype=float)
    d = float(phi.max() - phi.min())
    v = float(np.asarray(probs, dtype=float) @ (phi * phi))
    return (d, v, *round_stats(d, v, D, V, carry))


class TestValidation:
    def test_rejects_nan_loss(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            as_loss_array([0.0, math.nan])

    def test_rejects_infinite_loss(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            as_loss_array([math.inf, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            as_loss_array([1.0, 2.0], num_experts=3)

    def test_rejects_bad_simplex(self):
        with pytest.raises(ValueError, match="sum"):
            as_simplex([0.5, 0.6])
        with pytest.raises(ValueError, match="nonnegative"):
            as_simplex([1.5, -0.5])

    @pytest.mark.parametrize(
        "row, sum_text",
        [([0.9, 0.0], "0.9"), ([1.5, -0.5], "1.0"), ([math.nan, 1.0], "nan"), ([math.inf, 0.0], "inf")],
    )
    def test_simplex_table_names_first_bad_round(self, row, sum_text):
        table = np.full((5, 2), 0.5)
        table[2] = row
        table[4] = [2.0, 0.0]
        message = f"round 3: probabilities must be nonnegative and sum to 1, not {sum_text}"
        with pytest.raises(ValueError, match=message):
            as_simplex(table)
        np.testing.assert_array_equal(as_simplex(table[:2]), 0.5)


def observe_rows(losses):
    """Play ``losses`` through ``Aggregator.observe``: row by row if it is a
    table of rounds, else as one round's input."""
    agg = Aggregator(fixed_kernel(3), 1.0)
    for row in losses if losses.ndim == 2 and losses.size else [losses]:
        agg.probabilities()
        agg.observe(row)


# every public entry point that takes losses, for M = 3 experts
LOSS_ENTRY_POINTS = {
    "observe": observe_rows,
    "best_competitor": lambda table: best_competitor(cyclic_kernel(3), table),
    "best_prefix_losses": lambda table: best_prefix_losses(cyclic_kernel(3), table),
    "ewa_reference": lambda table: ewa_reference(table, 1.0),
    "trajectory_reference": lambda table: trajectory_reference(fixed_kernel(3), table, 1.0),
    "exhaustive_best": lambda table: exhaustive_best(fixed_kernel(3), table),
    "bound_report": lambda table: bound_report(2.0, np.full((5, 3), 1 / 3), table),
}


class TestLossGate:
    @pytest.mark.parametrize("entry", LOSS_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_loss_named_by_round(self, entry, value):
        table = np.zeros((5, 3))
        table[2, 1] = table[4, 0] = value
        # observe sees one round at a time, so only a table names the round
        where = "" if entry == "observe" else "round 3: "
        with pytest.raises(ValueError, match=f"^{where}losses contain NaN or infinite entries$"):
            LOSS_ENTRY_POINTS[entry](table)

    @pytest.mark.parametrize(
        "entry, shape",
        # ewa_reference has no kernel: any nonempty width is its M
        [(e, (5, 4)) for e in LOSS_ENTRY_POINTS if e != "ewa_reference"]
        + [(e, shape) for e in LOSS_ENTRY_POINTS for shape in [(2, 2, 3), (0, 3), (3, 0)]],
        ids=lambda arg: "x".join(map(str, arg)) if isinstance(arg, tuple) else arg,
    )
    def test_bad_shape_has_one_message(self, entry, shape):
        if shape == (5, 4):
            message = "losses have 4 columns, expected 3"
        else:
            message = f"losses must be a nonempty vector or table, not shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LOSS_ENTRY_POINTS[entry](np.zeros(shape))

    def test_observe_takes_one_round(self):
        agg = Aggregator(fixed_kernel(3), 1.0)
        agg.probabilities()
        with pytest.raises(ValueError, match=re.escape("one round's losses, not shape (1, 3)")):
            agg.observe(np.zeros((1, 3)))

    @pytest.mark.parametrize("entry", LOSS_ENTRY_POINTS)
    @pytest.mark.parametrize("dtype", ["<U3", object, complex], ids=["str", "object", "complex"])
    def test_non_real_losses_refused_before_conversion(self, entry, dtype):
        table = np.ones((5, 3)).astype(dtype)
        message = f"losses must be real numbers, not {np.dtype(dtype)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LOSS_ENTRY_POINTS[entry](table)

    def test_numeric_strings_are_not_losses(self):
        agg = Aggregator(fixed_kernel(2), 1.0)
        agg.probabilities()
        with pytest.raises(ValueError, match="^losses must be real numbers, not <U1$"):
            agg.observe(["1", "2"])
        with pytest.raises(ValueError, match="^losses must be real numbers, not <U3$"):
            best_competitor(fixed_kernel(2), [["abc", "0.5"]])

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.uint64, np.float16, np.float32])
    def test_real_dtypes_convert_to_float64(self, dtype):
        arr, lo, hi = as_loss_array(np.array([1, 0, 1], dtype=dtype), 3)
        assert arr.dtype == np.float64 and arr.tolist() == [1.0, 0.0, 1.0] and (lo, hi) == (0.0, 1.0)
        assert as_loss_array([True, 2, 0.5])[0].tolist() == [1.0, 2.0, 0.5]

    def test_returns_the_least_and_greatest_loss(self):
        table = np.array([[0.5, -2.0], [7.0, 1.0]])
        arr, lo, hi = as_loss_array(table, 2)
        assert arr is table and (lo, hi) == (-2.0, 7.0)
        assert as_loss_array([3.0, -1.0])[1:] == (-1.0, 3.0)

    @pytest.mark.parametrize(
        "values, lo, hi",
        [([-0.0, 0.0], -0.0, -0.0), ([0.0, -0.0], 0.0, 0.0), ([[0.0, 1.0], [-0.0, 1.0]], 0.0, 1.0),
         ([[2.0, -0.0], [0.0, 2.0]], -0.0, 2.0)],
        ids=["neg-first", "pos-first", "table-pos-first", "table-neg-first"],
    )
    def test_least_and_greatest_are_the_first_by_position(self, values, lo, hi):
        # a tie of -0.0 and 0.0 goes to the entry that comes first (row-major for a table)
        _, got_lo, got_hi = as_loss_array(values)
        assert type(got_lo) is float and type(got_hi) is float
        assert math.copysign(1.0, got_lo) == math.copysign(1.0, lo) and got_lo == lo
        assert math.copysign(1.0, got_hi) == math.copysign(1.0, hi) and got_hi == hi

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["first", "last", "only"])
    def test_nonfinite_entry_anywhere_raises(self, bad, where):
        vector = {"first": [bad, 1.0, 2.0], "last": [1.0, 2.0, bad], "only": [bad]}[where]
        with pytest.raises(ValueError, match="^losses contain NaN or infinite entries$"):
            as_loss_array(vector)
        table = np.ones((4, len(vector)))
        table[2] = vector
        with pytest.raises(ValueError, match="^round 3: losses contain NaN or infinite entries$"):
            as_loss_array(table)


class TestParameterGates:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: as_budget(True),
            lambda: gamma_from_budget(True),
            lambda: bound_report(True, np.ones((1, 1)), np.ones((1, 1))),
            lambda: TransitionKernel("x", 2.5, [(0,)], {(0,): [((0,), 1.0)]}),
            lambda: fixed_kernel(2.5),
            lambda: make_kernel("fixed", 2.5),
            lambda: cyclic_kernel("3"),
            lambda: class_budget(cyclic_kernel(2), [(1.7, 0.2), (1, 0)]),
            lambda: cyclic_kernel(2).successor_items((0.9, 1.2)),
            lambda: cyclic_kernel(2).successor_items((None, 1)),
            lambda: TransitionKernel("x", 1, [(0,)], {(0,): [((0,), "1.0")]}),
            lambda: TransitionKernel("x", 1, [(0,)], {(0,): [((0,), "abc")]}),
            lambda: TransitionKernel.from_dense("x", 1, [(0,)], [["abc"]]),
            lambda: TransitionKernel.from_dense("x", 1, [(0,)], [[None]]),
            lambda: TransitionKernel("x", 1, [(0,)], {(0,): [((0,), 1.0)]}, {(0,): math.nan}),
            lambda: fixed_kernel(3).budget_bound(2.5),
            lambda: TransitionKernel("x", 1, [5], {}),
            lambda: fixed_kernel(2).successor_items(1),
            lambda: class_budget(fixed_kernel(2), [0, 1]),
            lambda: fixed_kernel(3).budget_bound(10**400),
            lambda: run_sweep(ExperimentConfig(2, 3), 5, "never-created"),
            lambda: class_budget(cyclic_kernel(2), None),
            lambda: Aggregator("x", 1.0),
            lambda: next(loss_generator("iid-uniform", 2, None, None)),
            lambda: TransitionKernel("k", 1, [(0,)], [((0,), [((0,), 1.0)])]),
            lambda: TransitionKernel("k", 1, [(0,)], {(0,): [((0,), 1.0)]}, [((0,), 1.0)]),
            lambda: TransitionKernel("k", 1, [(0,)], {(0,): [((0,),)]}),
            lambda: TransitionKernel("k", 1, [(0,)], {(0,): [0]}),
            lambda: best_competitor("x", [[1.0]]),
            lambda: best_prefix_losses(None, [[1.0]]),
            lambda: class_budget("x", [(0,)]),
            lambda: trajectory_reference("x", [[1.0]], 1.0),
            lambda: exhaustive_best("x", [[1.0]]),
            lambda: run_experiment({"experts": 2, "rounds": 3}),
            lambda: run_sweep("x", [0], "never-created"),
            lambda: emit_csv("x", "never-created.csv"),
        ],
        ids=[
            "budget-bool", "gamma-from-bool-budget", "bound-report-bool-budget",
            "kernel-float-experts", "fixed-float-experts", "make-kernel-float-experts",
            "cyclic-str-experts", "class-budget-float-coordinate", "successor-float-coordinate",
            "none-coordinate", "mapping-numeric-str-weight", "mapping-str-weight",
            "dense-str-weight", "dense-none-weight", "nan-initial-weight", "float-rounds",
            "kernel-int-class", "successor-int-class", "class-budget-int-class",
            "rounds-beyond-an-array-index", "sweep-int-seeds", "class-budget-none-path",
            "aggregator-str-kernel", "generator-none-rng", "kernel-list-successors",
            "kernel-list-init-weights", "successor-row-of-1-tuples", "successor-row-of-ints",
            "competitor-str-kernel", "prefix-none-kernel", "class-budget-str-kernel",
            "trajectory-str-kernel", "exhaustive-str-kernel", "run-dict-config", "sweep-str-config",
            "emit-str-report",
        ],
    )
    def test_rejected_with_config_error(self, call):
        with pytest.raises(ConfigError):
            call()

    def test_numpy_reals_and_integers_accepted(self):
        assert as_budget(np.float32(2)) == 2.0
        assert fixed_kernel(np.int64(3)).num_experts == 3
        assert cyclic_kernel(2).successor_items((np.int8(1), np.int64(1))) == (((0, 1), 1.0),)

    @pytest.mark.parametrize("huge", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_ints_beyond_the_double_range_are_config_errors(self, huge):
        # math.isfinite on such an int raises OverflowError; the gate turns it into ConfigError
        calls = {
            "class budget must be a finite real >= 1": lambda: gamma_from_budget(huge),
            "gamma must be a positive finite real": lambda: Aggregator(fixed_kernel(2), huge),
            "switch_weight must be a real in": lambda: switching_kernel(2, huge),
        }
        for message, call in calls.items():
            with pytest.raises(ConfigError, match=f"^{message}"):
                call()


class TestCenterLosses:
    def test_constant_losses_center_to_zero(self):
        out = centered([3.0, 3.0, 3.0], [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_symmetric_two_experts(self):
        out = centered([0.0, 1.0], [0.5, 0.5])
        np.testing.assert_array_equal(out, [-0.5, 0.5])

    def test_weighted_mean_baseline(self):
        # 0.2*1 + 0.3*2 + 0.5*3 = 2.3
        out = centered([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        np.testing.assert_allclose([1.0, 2.0, 3.0] - out, 2.3, rtol=1e-15)
        np.testing.assert_allclose(out, [-1.3, -0.3, 0.7], rtol=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            centered([1.0, 2.0, 3.0], [0.5, 0.5])

    @given(losses=finite_losses, data=st.data())
    def test_weighted_mean_of_output_is_zero(self, losses, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        p = simplex_for(len(losses), np.random.default_rng(seed))
        out = centered(losses, p)
        # the residual scales with the raw loss magnitude, not the centered one
        scale = max(1.0, float(np.abs(np.asarray(losses)).max()))
        assert abs(float(p @ out)) <= 1e-12 * scale
        # at least one centered entry is nonnegative
        assert float(out.max()) >= -1e-12 * scale

    @given(losses=finite_losses, data=st.data())
    def test_mean_stays_inside_the_loss_range(self, losses, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        p = simplex_for(len(losses), np.random.default_rng(seed))
        out = centered(losses, p)
        assert float(out.max()) >= 0.0 >= float(out.min())

    @pytest.mark.parametrize("value", [0.1, 0.2, 1.1, -0.3, 1000.1])
    @pytest.mark.parametrize("experts", [5, 7])
    def test_constant_vector_centers_to_exact_zeros(self, value, experts):
        # fl(p @ (c * 1)) need not equal c; the centered scores still must be 0
        for seed in range(20):
            p = simplex_for(experts, np.random.default_rng(seed))
            np.testing.assert_array_equal(centered([value] * experts, p), 0.0)

    def test_returns_mean_scores_range_and_second_moment(self):
        losses, p = np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.3, 0.5])
        mean, phi, d, v = center_losses(losses, p, 1.0, 3.0, 1)
        assert mean == float(p @ losses) and phi.tolist() == (losses - mean).tolist()
        assert d == float(phi.max() - phi.min()) and v == float(p @ (phi * phi))


class TestRoundStats:
    def test_zero_scores_leave_stats_zero(self):
        d, v, D, V, _ = fold([0.0, 0.0], [0.3, 0.7])
        assert (d, v, D, V) == (0.0, 0.0, 0.0, 0.0)

    def test_range_and_second_moment(self):
        # v = 0.2*1.69 + 0.3*0.09 + 0.5*0.49 = 0.61
        d, v, D, V, _ = fold([-1.3, -0.3, 0.7], [0.2, 0.3, 0.5])
        assert d == pytest.approx(2.0, rel=1e-14)
        assert v == pytest.approx(0.61, rel=1e-12)
        assert (D, V) == (d, v)

    def test_accumulation(self):
        first = fold([-1.0, 1.0], [0.5, 0.5])
        second = fold([-0.5, 0.5], [0.5, 0.5], *first[2:])
        assert second[2] == first[0] == 2.0
        assert second[3] == pytest.approx(first[1] + 0.25, rel=1e-14)

    def test_variance_sum_is_compensated(self):
        # ten 1e-16 steps vanish one by one into a plain running sum of 1.0
        D, V, carry = round_stats(0.0, 1.0, 0.0, 0.0, 0.0)
        for _ in range(10):
            D, V, carry = round_stats(0.0, 1e-16, D, V, carry)
        assert V == math.fsum([1.0] + [1e-16] * 10) > 1.0

    @given(losses=finite_losses, shift=st.floats(-1e6, 1e6), data=st.data())
    def test_range_ignores_translation(self, losses, shift, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        p = simplex_for(len(losses), np.random.default_rng(seed))
        raw = np.asarray(losses)
        phi = centered(raw + shift, p)
        d_phi = fold(phi, p)[0]
        d_raw = float(raw.max() - raw.min())
        assert abs(d_phi - d_raw) <= 1e-9 * max(1.0, float(np.abs(raw).max()), abs(shift))


class TestLearningRate:
    def test_unit_inputs(self):
        assert learning_rate(1.0, 0.0, 1.0, 1) == 1.0

    def test_formula(self):
        # 2 / sqrt(12 + 4) = 0.5
        assert learning_rate(1.0, 12.0, 2.0, 1) == pytest.approx(0.5, rel=1e-15)

    def test_degenerate_sentinel(self):
        rate = learning_rate(0.0, 0.0, 1.0, 1)
        assert rate == DEGENERATE_ETA and math.isinf(rate)

    def test_ratio_degenerate_is_one(self):
        degenerate, finite = math.inf, 0.5
        assert ratio_of(finite, degenerate) == 1.0
        assert ratio_of(degenerate, degenerate) == 1.0
        assert ratio_of(0.25, finite) == 0.5

    @pytest.mark.parametrize(
        "eta, prev, step",
        [(math.inf, math.inf, (0.0, 1.0)), (0.5, math.inf, (0.5, 1.0)), (0.25, 0.5, (0.5, 0.5))],
        ids=["degenerate", "first-informative", "ordinary"],
    )
    def test_eta_ratio_regimes(self, eta, prev, step):
        # (exponent, ratio): no step while degenerate, eta_0 := eta_1 on the first informative round
        assert eta_ratio(eta, prev) == step

    @given(st.lists(finite_losses.filter(lambda l: len(l) >= 2), min_size=1, max_size=20))
    @settings(deadline=None, max_examples=50)
    def test_rate_is_nonincreasing(self, rounds):
        width = min(len(r) for r in rounds)
        p = np.full(width, 1.0 / width)
        stats = (0.0, 0.0, 0.0)
        previous = math.inf
        for t, losses in enumerate(rounds, start=1):
            phi = centered(losses[:width], p)
            stats = fold(phi, p, *stats)[2:]
            eta = learning_rate(*stats[:2], 0.7, t)
            assert eta <= previous * (1 + 1e-12)
            if math.isfinite(eta):
                # the boundedness condition the bound analysis relies on
                assert float((-eta * phi).max()) <= 1.0 + 1e-12
            previous = eta


class TestScaleCovariance:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 0.5, 1.0, 7.0, 1e3]))
    @settings(deadline=None, max_examples=40)
    def test_statistics_scale_as_declared(self, seed, scale):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((12, 4))
        p_rows = [simplex_for(4, rng) for _ in range(12)]
        base = scaled = (0.0, 0.0, 0.0, 0.0, 0.0)
        for t in range(12):
            phi = centered(table[t], p_rows[t])
            phi_s = centered(scale * table[t], p_rows[t])
            base = fold(phi, p_rows[t], *base[2:])
            scaled = fold(phi_s, p_rows[t], *scaled[2:])
            d, v, D, V, _ = base
            d_s, v_s, D_s, V_s, _ = scaled
            assert d_s == pytest.approx(scale * d, rel=1e-9, abs=1e-12)
            assert D_s == pytest.approx(scale * D, rel=1e-9, abs=1e-12)
            assert v_s == pytest.approx(scale**2 * v, rel=1e-9, abs=1e-15)
            assert V_s == pytest.approx(scale**2 * V, rel=1e-9, abs=1e-15)
            eta = learning_rate(D, V, 1.3, t + 1)
            eta_s = learning_rate(D_s, V_s, 1.3, t + 1)
            if not math.isinf(eta):
                # eta scales inversely, so eta * phi is invariant
                assert eta_s == pytest.approx(eta / scale, rel=1e-9)
                np.testing.assert_allclose(eta_s * phi_s, eta * phi, rtol=1e-9, atol=1e-12)


class TestGammaFromBudget:
    def test_budget_equal_to_constant_gives_unit_gamma(self):
        assert gamma_from_budget(TWO_E_MINUS_2) == 1.0

    def test_minimal_budget(self):
        # sqrt(1 / (2(e-2))), frozen from a 40-digit evaluation
        assert gamma_from_budget(1.0) == pytest.approx(0.8343294286962832, rel=1e-15)

    def test_two_expert_cyclic_budget(self):
        # W = 1 + 2 log 2; frozen from a 40-digit evaluation
        assert gamma_from_budget(1.0 + 2.0 * math.log(2.0)) == pytest.approx(
            1.2888416727811207, rel=1e-15
        )

    def test_rejects_budget_below_one(self):
        with pytest.raises(ConfigError):
            gamma_from_budget(0.99)

