"""Tests for the class-weight engine: protocol, updates, and invariances."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classhedge import core
from classhedge.aggregator import Aggregator
from classhedge.core import ConfigError, InvariantViolation, ProtocolError
from classhedge.kernels import cyclic_kernel, fixed_kernel, switching_kernel
from classhedge.oracle import trajectory_reference


def drive(agg: Aggregator, table) -> np.ndarray:
    """Feed a loss table through the engine, returning the declared p_t rows."""
    out = np.empty((len(table), agg.num_experts))
    for t, losses in enumerate(table):
        out[t] = agg.probabilities()
        agg.observe(losses)
    return out


class TestInit:
    def test_fixed_kernel_uniform_log_weights(self):
        agg = Aggregator(fixed_kernel(4), 1.0)
        np.testing.assert_allclose(agg.log_weights(), math.log(0.25), rtol=1e-15)

    def test_cyclic_kernel_uniform_over_classes(self):
        agg = Aggregator(cyclic_kernel(2), 1.0)
        np.testing.assert_allclose(agg.log_weights(), math.log(0.25), rtol=1e-15)

    def test_initial_probabilities_uniform(self):
        for kernel in (fixed_kernel(3), cyclic_kernel(3), switching_kernel(3, 0.2)):
            np.testing.assert_allclose(Aggregator(kernel, 1.0).probabilities(), 1 / 3, rtol=1e-12)

    def test_gamma_validated(self):
        with pytest.raises(ConfigError):
            Aggregator(fixed_kernel(2), 0.0)
        with pytest.raises(ConfigError):
            Aggregator(fixed_kernel(2), math.nan)


class TestProbabilities:
    def test_grouped_normalization_fixed(self):
        agg = Aggregator(fixed_kernel(3), 1.0)
        agg._log_w = np.log(np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(agg.probabilities(), [0.5, 0.25, 0.25], rtol=1e-14)

    def test_grouped_normalization_cyclic(self):
        # classes in lex order: (0,0), (0,1), (1,0), (1,1)
        agg = Aggregator(cyclic_kernel(2), 1.0)
        agg._log_w = np.log(np.array([2.0, 2.0, 1.0, 1.0]))
        np.testing.assert_allclose(agg.probabilities(), [2 / 3, 1 / 3], rtol=1e-14)

    def test_simplex_every_round(self):
        rng = np.random.default_rng(5)
        agg = Aggregator(cyclic_kernel(3), 0.9)
        for _ in range(50):
            p = agg.probabilities()
            assert abs(p.sum() - 1.0) <= 1e-12 and p.min() >= 0.0
            agg.observe(rng.standard_normal(3))


class TestSample:
    def test_point_mass(self):
        agg = Aggregator(fixed_kernel(3), 1.0)
        agg._log_w = np.array([0.0, -np.inf, -np.inf])
        rng = np.random.default_rng(0)
        assert all(agg.sample(rng) == 0 for _ in range(100))

    def test_same_seed_same_draws(self):
        agg = Aggregator(fixed_kernel(4), 1.0)
        draws_a = [agg.sample(np.random.default_rng(123)) for _ in range(1)]
        first = [Aggregator(fixed_kernel(4), 1.0).sample(np.random.default_rng(99)) for _ in range(5)]
        second = [Aggregator(fixed_kernel(4), 1.0).sample(np.random.default_rng(99)) for _ in range(5)]
        assert first == second
        assert draws_a[0] in range(4)

    def test_uniform_frequencies_within_binomial_bands(self):
        n = 100_000
        agg = Aggregator(fixed_kernel(4), 1.0)
        rng = np.random.default_rng(2024)
        counts = np.bincount([agg.sample(rng) for _ in range(n)], minlength=4)
        sigma = math.sqrt(n * 0.25 * 0.75)
        np.testing.assert_array_less(np.abs(counts - n * 0.25), 3 * sigma)


class TestProtocol:
    def test_observe_requires_declared_round(self):
        agg = Aggregator(fixed_kernel(2), 1.0)
        with pytest.raises(ProtocolError):
            agg.observe([0.0, 1.0])

    def test_double_observe_rejected(self):
        agg = Aggregator(fixed_kernel(2), 1.0)
        agg.probabilities()
        agg.observe([0.0, 1.0])
        with pytest.raises(ProtocolError):
            agg.observe([0.0, 1.0])

    def test_losses_validated_once_per_round(self, monkeypatch):
        calls = {"as_loss_array": 0, "as_simplex": 0}

        def counting(name):
            original = getattr(core, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return original, wrapper

        # replace every alias, whichever module the engine looks it up in
        for name in calls:
            original, wrapper = counting(name)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "classhedge" or mod_name.startswith("classhedge."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, wrapper)
        agg = Aggregator(switching_kernel(4, 0.1), 1.0)
        table = np.random.default_rng(0).random((10, 4))
        drive(agg, table)
        assert calls == {"as_loss_array": 10, "as_simplex": 0}

    def test_nonfinite_loss_rejected(self):
        agg = Aggregator(fixed_kernel(2), 1.0)
        agg.probabilities()
        with pytest.raises(ValueError, match="NaN or infinite"):
            agg.observe([math.nan, 0.0])


class TestObserve:
    def test_overflowing_loss_scale_is_a_typed_error(self):
        # phi^2 overflows double precision beyond a loss scale of ~1e154
        agg = Aggregator(switching_kernel(6, 0.1), 1.0)
        table = 1e160 * np.random.default_rng(3).random((5, 6))
        with pytest.raises(InvariantViolation, match="overflows"):
            drive(agg, table)

    def test_constant_losses_keep_initial_distribution(self):
        for kernel in (fixed_kernel(3), cyclic_kernel(2)):
            agg = Aggregator(kernel, 1.0)
            for _ in range(10):
                np.testing.assert_allclose(
                    agg.probabilities(), 1 / kernel.num_experts, rtol=1e-12
                )
                agg.observe([4.2] * kernel.num_experts)
            assert agg.current_eta.degenerate

    @pytest.mark.parametrize("value", [0.1, 1.1, 1000.1, -0.3])
    def test_constant_across_experts_is_degenerate_at_any_gamma(self, value):
        # with gamma > 1, a nonzero centered constant would give -eta*phi = gamma
        kernels = [make(m) for m in range(1, 9) for make in (fixed_kernel, cyclic_kernel)]
        kernels += [switching_kernel(m, 0.1) for m in range(2, 9)]
        for kernel in kernels:
            agg = Aggregator(kernel, 2.5)
            for _ in range(20):
                np.testing.assert_allclose(
                    agg.probabilities(), 1 / kernel.num_experts, rtol=1e-12
                )
                agg.observe([value] * kernel.num_experts)
            assert agg.current_eta.degenerate

    def test_degenerate_rounds_then_signal(self):
        # constant rounds leave no trace; the first informative round behaves
        # like a fresh start (eta_0 := eta_1)
        warm = Aggregator(fixed_kernel(2), 1.0)
        for _ in range(5):
            warm.probabilities()
            warm.observe([1.0, 1.0])
        fresh = Aggregator(fixed_kernel(2), 1.0)
        for agg in (warm, fresh):
            agg.probabilities()
            agg.observe([0.0, 1.0])
        np.testing.assert_allclose(warm.probabilities(), fresh.probabilities(), rtol=1e-12)

    def test_fixed_kernel_reduces_to_adaptive_exponential_weights(self):
        # p_{t+1} is proportional to exp(-eta_t * L_t), L_t the cumulative
        # centered loss: the rate-ratio exponent rescales the past each round
        rng = np.random.default_rng(11)
        table = rng.random((30, 4))
        gamma = 1.3
        agg = Aggregator(fixed_kernel(4), gamma)
        cum = np.zeros(4)
        d_max = v_sum = 0.0
        for t in range(30):
            p = agg.probabilities()
            if t == 0:
                np.testing.assert_array_equal(p, 0.25)
            else:
                eta = gamma / math.sqrt(v_sum + gamma**2 * d_max**2)
                expected = np.exp(-eta * (cum - cum.min()))
                np.testing.assert_allclose(p, expected / expected.sum(), rtol=1e-10)
            agg.observe(table[t])
            phi = table[t] - p @ table[t]
            cum += phi
            d_max = max(d_max, float(phi.max() - phi.min()))
            v_sum += float(p @ (phi * phi))

    def test_two_expert_closed_form_after_one_round(self):
        gamma = 0.7
        agg = Aggregator(fixed_kernel(2), gamma)
        agg.probabilities()
        agg.observe([0.0, 1.0])  # phi = [-1/2, 1/2]: d = 1, v = 1/4
        eta = gamma / math.sqrt(0.25 + gamma**2)
        expected = np.array([math.exp(eta / 2), math.exp(-eta / 2)])
        np.testing.assert_allclose(agg.probabilities(), expected / expected.sum(), rtol=1e-12)

    def test_cyclic_one_step_matches_trajectory_oracle(self):
        losses = np.array([[0.0, 1.0]])
        kernel = cyclic_kernel(2)
        agg = Aggregator(kernel, 1.0)
        agg.probabilities()
        agg.observe(losses[0])
        reference = trajectory_reference(kernel, losses, 1.0)
        np.testing.assert_allclose(agg.log_weights(), reference[1], atol=1e-12)
        # weights moved along sigma and tilted toward the cheaper expert:
        # (0,0) kept expert 0 (phi < 0), (0,1) came from expert-0 class (1,1) is lighter
        weights = dict(zip(kernel.class_list(), np.exp(agg.log_weights())))
        assert weights[(0, 0)] > weights[(1, 0)]
        assert weights[(1, 1)] > weights[(0, 1)]

    def test_diagnostics_recorded(self):
        agg = Aggregator(fixed_kernel(2), 2.0)
        agg.probabilities()
        agg.observe([0.0, 1.0])
        diag = agg.last_round
        assert diag.t == 1 and diag.d == 1.0 and diag.v == pytest.approx(0.25)
        assert diag.eta == pytest.approx(2.0 / math.sqrt(0.25 + 4.0), rel=1e-14)
        assert diag.exponent_eta == diag.eta  # first round uses eta_1 as eta_0
        assert diag.ratio == 1.0
        assert diag.max_neg_eta_phi <= 1.0 + 1e-12


class TestRunRound:
    def test_single_expert(self):
        agg = Aggregator(fixed_kernel(1), 1.0)
        rng = np.random.default_rng(0)
        for losses in ([5.0], [-3.0], [0.0]):
            p, choice = agg.run_round(losses, rng)
            assert choice == 0
            np.testing.assert_array_equal(p, [1.0])

    def test_identical_runs_are_identical(self):
        rng_losses = np.random.default_rng(7)
        table = rng_losses.random((20, 3))

        def play():
            agg = Aggregator(cyclic_kernel(3), 1.2)
            rng = np.random.default_rng(55)
            return [agg.run_round(row, rng) for row in table]

        for (p1, i1), (p2, i2) in zip(play(), play()):
            np.testing.assert_array_equal(p1, p2)
            assert i1 == i2


class TestInvariances:
    def run_probs(self, kernel, table, gamma):
        return drive(Aggregator(kernel, gamma), table)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        table = rng.random((40, 3))
        shifts = rng.uniform(-100, 100, size=(40, 1))
        kernel = cyclic_kernel(3)
        base = self.run_probs(kernel, table, 1.1)
        shifted = self.run_probs(kernel, table + shifts, 1.1)
        np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-250)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 0.25, 4.0, 1e3]))
    @settings(deadline=None, max_examples=25)
    def test_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        table = rng.standard_normal((40, 3))
        kernel = switching_kernel(3, 0.15)
        base = self.run_probs(kernel, table, 0.8)
        scaled = self.run_probs(kernel, scale * table, 0.8)
        np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-250)

    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    @settings(deadline=None, max_examples=25)
    def test_weight_gauge_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        table = rng.random((15, 2))
        kernel = cyclic_kernel(2)
        base = Aggregator(kernel, 1.0)
        gauged = Aggregator(kernel, 1.0)
        gauged._log_w = gauged._log_w + shift
        for t in range(15):
            np.testing.assert_allclose(
                gauged.probabilities(), base.probabilities(), rtol=1e-9, atol=1e-250
            )
            base.observe(table[t])
            gauged.observe(table[t])

    def test_eta_monotone_and_bounded_along_run(self):
        rng = np.random.default_rng(17)
        agg = Aggregator(cyclic_kernel(3), 1.4)
        previous = math.inf
        for scale in rng.uniform(0.1, 20.0, size=60):
            agg.probabilities()
            agg.observe(scale * rng.standard_normal(3))
            diag = agg.last_round
            assert diag.eta <= previous
            assert diag.max_neg_eta_phi <= 1.0 + 1e-12
            previous = diag.eta


class TestEdgeKernels:
    def test_user_kernel_end_to_end(self):
        from classhedge.kernels import TransitionKernel

        kernel = TransitionKernel.from_dense(
            "lazy-walk", 3, [(0,), (1,), (2,)],
            [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]],
        )
        agg = Aggregator(kernel, 1.0)  # explicit gamma; no declared budget
        rng = np.random.default_rng(18)
        for _ in range(200):
            p = agg.probabilities()
            assert abs(p.sum() - 1.0) <= 1e-12 and p.min() >= 0.0
            agg.observe(rng.standard_normal(3))
        assert agg.last_round.max_neg_eta_phi <= 1.0 + 1e-12

    def test_partial_coverage_gives_structural_zeros(self):
        from classhedge.kernels import TransitionKernel

        with pytest.warns(UserWarning, match="no class for experts"):
            kernel = TransitionKernel(
                "partial", 3, [(0,), (2,)],
                {(0,): [((0,), 1.0)], (2,): [((2,), 1.0)]},
            )
        agg = Aggregator(kernel, 1.0)
        rng = np.random.default_rng(19)
        for _ in range(30):
            p = agg.probabilities()
            assert p[1] == 0.0
            assert abs(p.sum() - 1.0) <= 1e-12
            agg.observe(rng.random(3))


class TestLongHorizon:
    def test_weights_stay_finite_over_many_rounds(self):
        # weights decay by hundreds of nats over a long adversarial run;
        # the log-domain recursion must not underflow or go NaN
        rng = np.random.default_rng(99)
        agg = Aggregator(cyclic_kernel(4), 1.5)
        for t in range(12_000):
            p = agg.probabilities()
            agg.observe(100.0 * rng.random(4) - 50.0)
            if t % 1000 == 0:
                assert abs(p.sum() - 1.0) <= 1e-12 and p.min() >= 0.0
        assert agg.log_weights().max() == 0.0
        assert np.all(np.isfinite(agg.probabilities()))
