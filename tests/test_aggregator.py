"""Tests for the class-weight engine: protocol, updates, and invariances."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classhedge import core
from classhedge.aggregator import Aggregator
from classhedge.core import ConfigError, InvariantViolation, ProtocolError
from classhedge.kernels import (
    EdgeList,
    FixedShare,
    Permutation,
    TransitionKernel,
    cyclic_kernel,
    fixed_kernel,
    switching_kernel,
)
from classhedge.oracle import trajectory_reference
from test_kernels import ROTATE_WITH_INIT, SHARE_WITH_GAP, edge_list_twin


def drive(agg: Aggregator, table) -> np.ndarray:
    """Feed a loss table through the engine, returning the declared p_t rows."""
    out = np.empty((len(table), agg.num_experts))
    for t, losses in enumerate(table):
        out[t] = agg.probabilities()
        agg.observe(losses)
    return out


def straight_loop_mixing(matrix, table: np.ndarray, gamma: float) -> np.ndarray:
    """A second, deliberately naive rendering of the engine for a kernel whose
    classes are the experts: dense, linear-domain, one round at a time.

    w' = T^T (w * exp(-eta_prev * phi)) ** (eta / eta_prev), renormalized.
    """
    T = np.asarray(matrix, dtype=float)
    rounds, experts = table.shape
    w = np.full(experts, 1.0 / experts)
    out = []
    d_max = v_sum = 0.0
    eta_prev = None
    for t in range(rounds):
        p = w / w.sum()
        out.append(p)
        phi = table[t] - float(np.dot(p, table[t]))
        d_max = max(d_max, max(phi) - min(phi))
        v_sum += sum(q * f * f for q, f in zip(p, phi))
        eta = gamma / math.sqrt(v_sum + gamma**2 * d_max**2)
        if eta_prev is None:
            eta_prev = eta
        z = w * np.exp(-eta_prev * phi)
        w = T.T @ z ** (eta / eta_prev)
        w = w / w.max()
        eta_prev = eta
    out.append(w / w.sum())
    return np.array(out)


def switching_matrix(experts: int, weight: float) -> np.ndarray:
    return np.where(np.eye(experts, dtype=bool), 1.0 - weight, weight / (experts - 1))


LAZY_WALK = [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]]


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
        with pytest.raises(ConfigError):
            Aggregator(fixed_kernel(2), True)


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

    @pytest.mark.parametrize("num_experts", [10**5, 10**6])
    def test_a_large_uniform_prior_declares_round_one(self, num_experts):
        # p is fl(1/M) in every entry: its running sum in index order ends about M * 2**-54 from 1,
        # past the simplex tolerance, while the pairwise sum the check reads stays within it
        p = Aggregator(fixed_kernel(num_experts), 1.0).probabilities()
        assert abs(float(np.add.reduce(p)) - 1.0) <= 1e-12
        assert abs(float(np.add.accumulate(p)[-1]) - 1.0) > 1e-12


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

    def test_draws_of_one_round_use_the_same_running_sums(self):
        agg = Aggregator(cyclic_kernel(3), 0.8)
        rng = np.random.default_rng(6)
        for losses in np.random.default_rng(7).standard_normal((5, 3)):
            agg.run_round(losses, rng)
        u = np.random.default_rng(9).random(2)
        rng = np.random.default_rng(9)
        first = agg.sample(rng)
        declared = agg._cached_p
        draws = [first, agg.sample(rng)]
        assert agg._cached_p is declared  # the second draw reads the vector the first declared
        cdf = np.add.accumulate(agg.probabilities())
        assert draws == [min(int(cdf.searchsorted(x, side="right")), 2) for x in u]


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

    def test_range_whose_square_overflows_is_a_typed_error(self):
        agg = Aggregator(fixed_kernel(2), 1.0)
        agg.probabilities()
        with pytest.raises(InvariantViolation, match="round 1: score range .* overflows"):
            agg.observe([-1e160, 1e160])

    def test_rate_that_underflows_to_zero_is_a_typed_error(self):
        # 5e-324 / sqrt(4) rounds to 0.0; the next round's step ratio would divide by it
        agg = Aggregator(fixed_kernel(2), 5e-324)
        agg.probabilities()
        with pytest.raises(InvariantViolation, match=r"^round 1: learning rate .* underflows to 0$"):
            agg.observe([0.0, 4.0])

    def test_constant_losses_keep_initial_distribution(self):
        for kernel in (fixed_kernel(3), cyclic_kernel(2)):
            agg = Aggregator(kernel, 1.0)
            for _ in range(10):
                np.testing.assert_allclose(
                    agg.probabilities(), 1 / kernel.num_experts, rtol=1e-12
                )
                agg.observe([4.2] * kernel.num_experts)
            assert math.isinf(agg.last_round.eta)

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
            assert math.isinf(agg.last_round.eta)

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
        weights = dict(zip(kernel.classes, np.exp(agg.log_weights())))
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


# a rotation whose weights are 1 - 4e-13: within the 1e-12 row check, yet its log
# weights are not 0.0, so its mixing must keep the add of the edge weights
NEAR_UNIT = TransitionKernel.from_dense(
    "near-unit", 3, [(0,), (1,), (2,)], (1.0 - 4e-13) * np.roll(np.eye(3), 1, axis=1)
)


class TestStructuredMixing:
    """Each structure's closed-form mix against the edge-list structure of the same tables."""

    @staticmethod
    def random_log_z(rng, k):
        log_z = rng.uniform(-30.0, 5.0, k)
        log_z[rng.random(k) < 0.3] = -np.inf
        log_z[rng.integers(k)] = rng.uniform(-30.0, 5.0)  # at least one finite
        return log_z

    def check_fixed_share(self, kernel, rng):
        structure = kernel._structure
        assert isinstance(structure, FixedShare)
        twin = edge_list_twin(kernel)._structure
        for ratio in [1.0, 1e-6, *rng.uniform(1e-3, 1.0, 10)]:
            log_z = self.random_log_z(rng, kernel.num_classes)
            np.testing.assert_allclose(
                structure.mix(log_z, ratio), twin.mix(log_z, ratio), rtol=0.0, atol=1e-12
            )

    @pytest.mark.parametrize("experts", [2, 3, 8, 64])
    @pytest.mark.parametrize("weight", [0.1, 0.5, 0.9, 0.99, 1 - 1e-9])
    def test_fixed_share_matches_edge_list(self, experts, weight):
        rng = np.random.default_rng(experts * 1000 + int(weight * 100))
        self.check_fixed_share(switching_kernel(experts, weight), rng)

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_share_over_classes_with_a_missing_expert_matches_edge_list(self, seed):
        self.check_fixed_share(SHARE_WITH_GAP, np.random.default_rng(seed))

    @pytest.mark.parametrize(
        "kernel",
        [fixed_kernel(1), fixed_kernel(5), cyclic_kernel(2), cyclic_kernel(4), ROTATE_WITH_INIT, NEAR_UNIT],
    )
    def test_permutation_matches_edge_list_exactly(self, kernel):
        assert isinstance(kernel._structure, Permutation)
        # unit weights skip the add of the log weights; NEAR_UNIT's must keep it
        assert kernel._structure.unit == bool((kernel._structure.w == 1.0).all()) == (kernel is not NEAR_UNIT)
        twin = edge_list_twin(kernel)._structure
        rng = np.random.default_rng(kernel.num_classes)
        for ratio in [1.0, 1e-6, *rng.uniform(1e-3, 1.0, 10)]:
            log_z = self.random_log_z(rng, kernel.num_classes)
            assert kernel._structure.mix(log_z, ratio).tobytes() == twin.mix(log_z, ratio).tobytes()


def play(kernel, table, gamma=0.8):
    """The declared vectors, the draws, the diagnostics and the final log weights of one run."""
    agg = Aggregator(kernel, gamma)
    rng = np.random.default_rng(3)
    probs, choices, diags = [], [], []
    for losses in table:
        p, choice = agg.run_round(losses, rng)
        probs.append(p)
        choices.append(choice)
        diags.append(agg.last_round)
    return np.array(probs), choices, np.array(diags, dtype=float), agg.log_weights()


def lean_round_streams(experts, rounds=80):
    """Signed zeros, exact ties, and losses of subnormal and mixed scales."""
    rng = np.random.default_rng(experts * rounds)
    shape = (rounds, experts)
    zeros = rng.choice([-0.0, 0.0, 0.0, 1.0, -1.0], shape)
    ties = rng.integers(0, 3, shape).astype(float)
    subnormal = rng.random(shape) * 10.0 ** rng.choice([-320, -310, -300, 0], (rounds, 1))
    return {"signed-zeros": zeros, "ties": ties, "subnormal": subnormal}


class TestLeanRound:
    """The round's in-place work and skipped steps change no bit of what the engine reports."""

    @pytest.mark.parametrize(
        "kernel",
        [fixed_kernel(3), cyclic_kernel(3), switching_kernel(4, 0.3), NEAR_UNIT, SHARE_WITH_GAP,
         TransitionKernel.from_dense("lazy-walk", 3, [(0,), (1,), (2,)], LAZY_WALK)],
        ids=lambda k: f"{k.name}-{k.num_classes}",
    )
    def test_mix_and_grouping_leave_their_inputs(self, kernel):
        k = kernel.num_classes
        rng = np.random.default_rng(k)
        for structure in (kernel._structure, edge_list_twin(kernel)._structure):
            for ratio in (1.0, 0.3):
                log_z = TestStructuredMixing.random_log_z(rng, k)
                before = log_z.tobytes()
                structure.mix(log_z, ratio)
                assert log_z.tobytes() == before, type(structure).__name__
        for log_w in (TestStructuredMixing.random_log_z(rng, k), np.where(kernel._expert_of == 0, -np.inf, 0.0)):
            before = log_w.tobytes()
            kernel._expert_log_weights(log_w)
            assert log_w.tobytes() == before

    @pytest.mark.parametrize("stream", ["signed-zeros", "ties", "subnormal"])
    @pytest.mark.parametrize(
        "kernel",
        [fixed_kernel(1), fixed_kernel(3), cyclic_kernel(3), NEAR_UNIT, switching_kernel(3, 0.2),
         switching_kernel(3, 0.9)],
        ids=lambda k: f"{k.name}-{k.num_classes}",
    )
    def test_engine_matches_its_edge_list_twin(self, kernel, stream):
        table = lean_round_streams(kernel.num_experts)[stream]
        probs, choices, diags, log_w = play(kernel, table)
        twin_probs, twin_choices, twin_diags, twin_log_w = play(edge_list_twin(kernel), table)
        assert choices == twin_choices
        if isinstance(kernel._structure, Permutation):
            assert probs.tobytes() == twin_probs.tobytes()
            assert diags.tobytes() == twin_diags.tobytes()
            np.testing.assert_array_equal(log_w, twin_log_w)  # a zero's sign may differ
        else:
            np.testing.assert_allclose(probs, twin_probs, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(diags, twin_diags, rtol=1e-12, atol=0.0)

    def test_unit_weight_skip_on_a_subnormal_log_weight_stream(self):
        # expert 3 starts weightless, so the mean ignores its loss: round 1 fixes eta = 1,
        # round 2 puts expert 1 a subnormal 5e-324 behind, and round 3's range jump gives
        # ratio 1e-3, where ratio * -5e-324 underflows to -0.0 in place of the add's +0.0
        kernel = TransitionKernel.from_dense(
            "fixed-prior", 4, [(m,) for m in range(4)], np.eye(4),
            init_weights={(0,): 1 / 3, (1,): 1 / 3, (2,): 1 / 3},
        )
        assert kernel._structure.unit
        opening = [[0.0, 0.0, 0.0, 1.0], [0.0, 5e-324, 0.0, 0.0], [0.0, 0.0, 0.0, 1e3]]
        rest = np.random.default_rng(2).integers(0, 2, (30, 4)) * 10.0 ** np.repeat([-320, 0], 15)[:, None]
        table = np.vstack([opening, rest])
        negative_zeros = []
        real_mix = Permutation.mix

        def spy(structure, log_z, ratio):
            new_lw = real_mix(structure, log_z, ratio)
            negative_zeros.append(int(np.count_nonzero((new_lw == 0.0) & np.signbit(new_lw))))
            return new_lw

        with mock.patch.object(Permutation, "mix", spy):
            probs, choices, diags, log_w = play(kernel, table, gamma=1.0)
        assert negative_zeros[2] == 1  # the skipped add would have changed this bit
        twin_probs, twin_choices, twin_diags, twin_log_w = play(edge_list_twin(kernel), table, gamma=1.0)
        assert probs.tobytes() == twin_probs.tobytes()
        assert choices == twin_choices
        assert diags.tobytes() == twin_diags.tobytes()
        np.testing.assert_array_equal(log_w, twin_log_w)
        # after round 3 the engine's log weights differ from the twin's in one zero's sign
        after, twin_after = play(kernel, opening, 1.0)[3], play(edge_list_twin(kernel), opening, 1.0)[3]
        assert after.tolist() == twin_after.tolist() == [0.0, 0.0, 0.0, -math.inf]
        assert np.signbit(after[1]) and not np.signbit(twin_after[1])


class TestAgainstStraightLoop:
    """The engine on non-permutation kernels against straight_loop_mixing."""

    def check(self, kernel, matrix, seed):
        rng = np.random.default_rng(seed)
        table = rng.random((60, kernel.num_experts))
        gamma = float(rng.uniform(0.3, 3.0))
        agg = Aggregator(kernel, gamma)
        probs = np.vstack([drive(agg, table), agg.probabilities()])
        np.testing.assert_allclose(probs, straight_loop_mixing(matrix, table, gamma), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("experts", [2, 3, 5])
    @pytest.mark.parametrize("weight", [0.05, 0.5, 0.95])
    def test_switching(self, experts, weight):
        self.check(switching_kernel(experts, weight), switching_matrix(experts, weight), experts)

    @pytest.mark.parametrize("seed", range(3))
    def test_lazy_walk_generic_path(self, seed):
        kernel = TransitionKernel.from_dense("lazy-walk", 3, [(0,), (1,), (2,)], LAZY_WALK)
        assert isinstance(kernel._structure, EdgeList)
        self.check(kernel, LAZY_WALK, seed)


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

    @pytest.mark.parametrize("kernel", [fixed_kernel(3), cyclic_kernel(3), switching_kernel(3, 0.2)],
                             ids=lambda k: k.name)
    def test_returned_vector_is_not_a_live_buffer(self, kernel):
        table = np.random.default_rng(8).standard_normal((12, 3))
        agg = Aggregator(kernel, 0.8)
        rng = np.random.default_rng(1)
        for losses in table[:4]:
            agg.run_round(losses, rng)
        declared = agg.probabilities()
        kept, _ = agg.run_round(table[4], rng)
        bits = kept.tobytes()
        assert bits == declared.tobytes()
        for losses in table[5:10]:
            agg.run_round(losses, rng)
        assert kept.tobytes() == bits

    @pytest.mark.parametrize(
        "kernel",
        [fixed_kernel(3), cyclic_kernel(3), switching_kernel(3, 0.2), SHARE_WITH_GAP,
         TransitionKernel.from_dense("lazy-walk", 3, [(0,), (1,), (2,)], LAZY_WALK)],
        ids=lambda k: f"{k.name}-{k.num_classes}",
    )
    def test_equals_probabilities_sample_observe(self, kernel):
        rng = np.random.default_rng(kernel.num_classes)
        table = np.concatenate([rng.standard_normal((40, 3)), lean_round_streams(3, 20)["signed-zeros"]])
        one, three = Aggregator(kernel, 0.8), Aggregator(kernel, 0.8)
        rng_one, rng_three = np.random.default_rng(12), np.random.default_rng(12)
        choices = set()
        for losses in table:
            p, choice = one.run_round(losses, rng_one)
            q = three.probabilities()
            assert choice == three.sample(rng_three)
            three.observe(losses)
            assert p.tobytes() == q.tobytes()
            assert rng_one.bit_generator.state == rng_three.bit_generator.state
            assert np.array(one.last_round).tobytes() == np.array(three.last_round).tobytes()
            choices.add(choice)
        assert len(choices) > 1

    def test_writing_into_probabilities_leaves_the_centering_mean(self):
        losses = np.array([0.3, -1.2, 2.5])
        means = []
        for scribble in (False, True):
            agg = Aggregator(cyclic_kernel(3), 0.8)
            declared = agg.probabilities()
            if scribble:
                declared[:] = [1.0, 0.0, 0.0]
            agg.observe(losses)
            means.append(agg.last_round.expected_loss)
        assert means[0] == means[1] == float(Aggregator(cyclic_kernel(3), 0.8).probabilities() @ losses)


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

    @pytest.mark.parametrize(
        "kernel", [fixed_kernel(6), cyclic_kernel(6), switching_kernel(6, 0.05)], ids=lambda k: k.name
    )
    def test_large_translation_moves_p_by_the_inputs_quantisation(self, kernel):
        # l + c holds l only to the spacing of doubles near c, ulp(c): p may move
        # by that over the loss range, times a constant (at most 1.46 measured
        # over 8 seeds of these kernels, so 4 leaves 2.7x headroom)
        gamma = core.gamma_from_budget(kernel.budget_bound(300))
        for seed in range(4):
            table = np.random.default_rng(seed).random((300, 6))
            base = self.run_probs(kernel, table, gamma)
            loss_range = (table.max(axis=1) - table.min(axis=1)).max()
            for c in (1e6, 1e9, 1e12, 1e15):
                drift = np.abs(self.run_probs(kernel, table + c, gamma) - base).max()
                assert drift <= 4.0 * np.spacing(c) / loss_range, (seed, c)

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


_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),  # exact ties and signed zeros
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


class TestRoundShortcuts:
    """The engine reads d, both -c*phi margins and the clamped mean off one
    min/max pair of the losses; array reductions over phi must agree exactly."""

    @given(
        kernel_index=st.integers(0, 3),
        gamma=st.floats(0.3, 3.0),
        opening=st.integers(0, 4),
        rows=st.lists(
            st.tuples(st.lists(_ENTRY, min_size=4, max_size=4), st.integers(-150, 150), st.booleans()),
            min_size=1,
            max_size=25,
        ),
    )
    @settings(deadline=None, max_examples=150)
    def test_margins_and_range_equal_array_reductions(self, kernel_index, gamma, opening, rows):
        kernel = (fixed_kernel(4), cyclic_kernel(4), switching_kernel(4, 0.1), switching_kernel(4, 0.9))
        agg = Aggregator(kernel[kernel_index], gamma)
        # a constant row under a non-uniform p is where p . l can round outside [min l, max l]
        table = [[0.0, -0.0, 0.0, -0.0]] * opening + [
            [x * 10.0**k for x in (row[:1] * 4 if constant else row)] for row, k, constant in rows
        ]
        for losses in table:
            p = agg.probabilities()
            agg.observe(losses)
            diag = agg.last_round
            l = np.asarray(losses)
            mean = float(np.clip(p @ l, l.min(), l.max()))
            phi = l - mean
            assert diag.expected_loss == mean
            assert diag.d == phi.max() - phi.min()
            if not math.isinf(diag.eta):
                assert diag.max_neg_eta_phi == (-diag.eta * phi).max()
            assert diag.max_neg_exponent_phi == (-diag.exponent_eta * phi).max()


class TestEdgeKernels:
    def test_user_kernel_end_to_end(self):
        from classhedge.kernels import TransitionKernel

        kernel = TransitionKernel.from_dense(
            "lazy-walk", 3, [(0,), (1,), (2,)],
            [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]],
        )
        agg = Aggregator(kernel, 1.0)
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

    def test_expert_whose_classes_carry_no_weight_gets_zero(self):
        # expert 1's two classes start, and so stay, at weight 0: its grouped
        # log-sum-exp segment is all -inf
        from classhedge.kernels import TransitionKernel

        classes = [(m, j) for m in range(2) for j in range(2)]
        kernel = TransitionKernel(
            "half-started", 2, classes, {c: [(c, 1.0)] for c in classes},
            init_weights={(0, 0): 0.5, (0, 1): 0.5},
        )
        agg = Aggregator(kernel, 1.0)
        rng = np.random.default_rng(23)
        for _ in range(5):
            np.testing.assert_array_equal(agg.probabilities(), [1.0, 0.0])
            agg.observe(rng.random(2))


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


# Two ordinary rounds, then a near-constant one: its tiny variance minus the compensation carry
# lowers the summed V in its last bits, so the raw rate rises two ulps, 0.9644911295759361 -> ...363.
ULP_RISE_TABLE = [
    [0.4705018705100644, 0.015225783606016452, 0.2654266306882711],
    [0.9702105585314659, 0.09001920584746437, 0.017139587768385756],
    [0.9994160977512032, 0.9994160977846962, 0.9994160977437858],
]


def _raw_rates(monkeypatch, rise=0.0):
    """Record every rate ``learning_rate`` returns to the engine, raised by ``rise`` from round 3."""
    import classhedge.aggregator

    raw = []

    def recording(D, V, gamma, t):
        raw.append(core.learning_rate(D, V, gamma, t) + (rise if t >= 3 else 0.0))
        return raw[-1]

    monkeypatch.setattr(classhedge.aggregator, "learning_rate", recording)
    return raw


def test_a_rate_that_rises_in_its_last_bits_is_held_at_the_previous_rate(monkeypatch):
    raw = _raw_rates(monkeypatch)
    agg = Aggregator(fixed_kernel(3), 1.0)
    etas = []
    for row in ULP_RISE_TABLE:
        agg.probabilities()
        agg.observe(row)
        etas.append(agg.last_round.eta)
    assert raw[1] == etas[1] == 0.9644911295759361
    assert raw[2] == 0.9644911295759363 == math.nextafter(math.nextafter(raw[1], 2.0), 2.0)
    assert etas[2] == etas[1] and agg.last_round.ratio == 1.0


def test_a_rate_that_rises_past_the_tolerance_stops_the_round(monkeypatch):
    _raw_rates(monkeypatch, rise=1e-9)
    agg = Aggregator(fixed_kernel(3), 1.0)
    message = r"^round 3: learning rate increased \(0\.9644911295759361 -> 0\.96449113057\d*\)$"
    drive(agg, ULP_RISE_TABLE[:2])
    agg.probabilities()
    with pytest.raises(InvariantViolation, match=message):
        agg.observe(ULP_RISE_TABLE[2])


def _calls_per_round(kernel, warmup=10, rounds=50):
    """C-level and Python-level calls of one ``run_round``, counted with ``sys.setprofile`` over
    ``rounds`` rounds after ``warmup`` rounds; the count does not move with the host's speed."""
    agg = Aggregator(kernel, 1.0)
    rng = np.random.default_rng(0)
    table = np.random.default_rng(1).random((warmup + rounds, kernel.num_experts))
    for losses in table[:warmup]:
        agg.run_round(losses, rng)
    counts = {"c_call": 0, "call": 0}

    def profile(frame, event, arg):
        if event in counts and arg is not sys.setprofile:
            counts[event] += 1

    run_round = agg.run_round
    sys.setprofile(profile)
    try:
        for losses in table[warmup:]:
            run_round(losses, rng)
    finally:
        sys.setprofile(None)
    return counts["c_call"] / rounds, counts["call"] / rounds


CIRCULANT_8 = TransitionKernel.from_dense(
    "circulant", 8, [(m,) for m in range(8)],
    0.6 * np.eye(8) + 0.2 * np.roll(np.eye(8), 1, axis=1) + 0.2 * np.roll(np.eye(8), -1, axis=1),
)


@pytest.mark.parametrize("kernel, c_calls, py_calls", [
    (fixed_kernel(8), 28, 13),
    (cyclic_kernel(8), 33, 14),
    (switching_kernel(8, 0.1), 34, 13),
    (CIRCULANT_8, 35, 16),
], ids=["fixed-8", "cyclic-8", "switching-8", "circulant-8"])
def test_a_round_makes_at_most_its_pinned_calls(kernel, c_calls, py_calls):
    # counted under CPython 3.11.7 and numpy 2.4.6; a change that adds a call to the round raises
    # its pin here and says so, and an upgrade that moves a function between Python and C re-pins
    assert isinstance(CIRCULANT_8._structure, EdgeList)
    c_count, py_count = _calls_per_round(kernel)
    assert c_count <= c_calls and py_count <= py_calls, (c_count, py_count)
