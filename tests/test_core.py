"""Unit and property tests for the scalar round math."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classhedge.core import (
    TWO_E_MINUS_2,
    ConfigError,
    InvariantViolation,
    LearningRate,
    RoundStats,
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


class TestCenterLosses:
    def test_constant_losses_center_to_zero(self):
        out = center_losses([3.0, 3.0, 3.0], [0.2, 0.3, 0.5])
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_symmetric_two_experts(self):
        out = center_losses([0.0, 1.0], [0.5, 0.5])
        np.testing.assert_array_equal(out, [-0.5, 0.5])

    def test_weighted_mean_baseline(self):
        # 0.2*1 + 0.3*2 + 0.5*3 = 2.3
        out = center_losses([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        np.testing.assert_allclose([1.0, 2.0, 3.0] - out, 2.3, rtol=1e-15)
        np.testing.assert_allclose(out, [-1.3, -0.3, 0.7], rtol=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            center_losses([1.0, 2.0, 3.0], [0.5, 0.5])

    @given(losses=finite_losses, data=st.data())
    def test_weighted_mean_of_output_is_zero(self, losses, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        p = simplex_for(len(losses), np.random.default_rng(seed))
        out = center_losses(losses, p)
        # the residual scales with the raw loss magnitude, not the centered one
        scale = max(1.0, float(np.abs(np.asarray(losses)).max()))
        assert abs(float(p @ out)) <= 1e-12 * scale
        # at least one centered entry is nonnegative
        assert float(out.max()) >= -1e-12 * scale

    @given(losses=finite_losses, data=st.data())
    def test_mean_stays_inside_the_loss_range(self, losses, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        p = simplex_for(len(losses), np.random.default_rng(seed))
        out = center_losses(losses, p)
        assert float(out.max()) >= 0.0 >= float(out.min())

    @pytest.mark.parametrize("value", [0.1, 0.2, 1.1, -0.3, 1000.1])
    @pytest.mark.parametrize("experts", [5, 7])
    def test_constant_vector_centers_to_exact_zeros(self, value, experts):
        # fl(p @ (c * 1)) need not equal c; the centered scores still must be 0
        for seed in range(20):
            p = simplex_for(experts, np.random.default_rng(seed))
            np.testing.assert_array_equal(center_losses([value] * experts, p), 0.0)


class TestRoundStats:
    def test_zero_scores_leave_stats_zero(self):
        stats = round_stats([0.0, 0.0], [0.3, 0.7], RoundStats())
        assert (stats.d, stats.v, stats.D, stats.V) == (0.0, 0.0, 0.0, 0.0)
        assert stats.t == 1

    def test_range_and_second_moment(self):
        # v = 0.2*1.69 + 0.3*0.09 + 0.5*0.49 = 0.61
        stats = round_stats([-1.3, -0.3, 0.7], [0.2, 0.3, 0.5], RoundStats())
        assert stats.d == pytest.approx(2.0, rel=1e-14)
        assert stats.v == pytest.approx(0.61, rel=1e-12)

    def test_accumulation(self):
        first = round_stats([-1.0, 1.0], [0.5, 0.5], RoundStats())
        second = round_stats([-0.5, 0.5], [0.5, 0.5], first)
        assert second.D == first.d == 2.0
        assert second.V == pytest.approx(first.v + 0.25, rel=1e-14)
        assert second.t == 2

    def test_range_whose_square_overflows_is_a_typed_error(self):
        with pytest.raises(InvariantViolation, match="overflows"):
            round_stats([-1e160, 1e160], [0.5, 0.5], RoundStats())

    @given(losses=finite_losses, shift=st.floats(-1e6, 1e6), data=st.data())
    def test_range_ignores_translation(self, losses, shift, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        p = simplex_for(len(losses), np.random.default_rng(seed))
        raw = np.asarray(losses)
        phi = center_losses(raw + shift, p)
        d_phi = round_stats(phi, p, RoundStats()).d
        d_raw = float(raw.max() - raw.min())
        assert abs(d_phi - d_raw) <= 1e-9 * max(1.0, float(np.abs(raw).max()), abs(shift))


class TestLearningRate:
    def test_unit_inputs(self):
        assert learning_rate(RoundStats(D=1.0, V=0.0), 1.0).eta == 1.0

    def test_formula(self):
        # 2 / sqrt(12 + 4) = 0.5
        assert learning_rate(RoundStats(D=1.0, V=12.0), 2.0).eta == pytest.approx(0.5, rel=1e-15)

    def test_degenerate_sentinel(self):
        rate = learning_rate(RoundStats(), 1.0)
        assert rate.degenerate and math.isinf(rate.eta)

    def test_ratio_degenerate_is_one(self):
        degenerate = LearningRate(eta=math.inf, gamma=1.0)
        finite = LearningRate(eta=0.5, gamma=1.0)
        assert eta_ratio(finite, degenerate) == 1.0
        assert eta_ratio(degenerate, degenerate) == 1.0
        assert eta_ratio(LearningRate(eta=0.25, gamma=1.0), finite) == 0.5

    @given(st.lists(finite_losses.filter(lambda l: len(l) >= 2), min_size=1, max_size=20))
    @settings(deadline=None, max_examples=50)
    def test_rate_is_nonincreasing(self, rounds):
        width = min(len(r) for r in rounds)
        p = np.full(width, 1.0 / width)
        stats = RoundStats()
        previous = math.inf
        for losses in rounds:
            phi = center_losses(losses[:width], p)
            stats = round_stats(phi, p, stats)
            eta = learning_rate(stats, 0.7).eta
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
        base, scaled = RoundStats(), RoundStats()
        for t in range(12):
            phi = center_losses(table[t], p_rows[t])
            phi_s = center_losses(scale * table[t], p_rows[t])
            base = round_stats(phi, p_rows[t], base)
            scaled = round_stats(phi_s, p_rows[t], scaled)
            assert scaled.d == pytest.approx(scale * base.d, rel=1e-9, abs=1e-12)
            assert scaled.D == pytest.approx(scale * base.D, rel=1e-9, abs=1e-12)
            assert scaled.v == pytest.approx(scale**2 * base.v, rel=1e-9, abs=1e-15)
            assert scaled.V == pytest.approx(scale**2 * base.V, rel=1e-9, abs=1e-15)
            eta = learning_rate(base, 1.3)
            eta_s = learning_rate(scaled, 1.3)
            if not eta.degenerate:
                # eta scales inversely, so eta * phi is invariant
                assert eta_s.eta == pytest.approx(eta.eta / scale, rel=1e-9)
                np.testing.assert_allclose(eta_s.eta * phi_s, eta.eta * phi, rtol=1e-9, atol=1e-12)


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

