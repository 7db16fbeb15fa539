"""Tests for competition-class kernels, budgets, and the competitor DP."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classhedge.core import ConfigError, OutOfClassError
from classhedge.kernels import (
    TransitionKernel,
    best_competitor,
    best_prefix_losses,
    class_budget,
    cyclic_kernel,
    fixed_kernel,
    switching_kernel,
)
from classhedge.oracle import exhaustive_best

BUILTINS = st.one_of(
    st.integers(1, 5).map(fixed_kernel),
    st.integers(1, 4).map(cyclic_kernel),
    st.tuples(st.integers(2, 5), st.floats(0.01, 0.99)).map(
        lambda args: switching_kernel(*args)
    ),
)


def random_in_class_path(kernel, rounds, rng):
    tb = kernel.tables
    starts = [c for i, c in enumerate(tb.classes) if tb.init_weights[i] > 0]
    cls = starts[rng.integers(len(starts))]
    path = [cls]
    for _ in range(rounds - 1):
        options = kernel.successor_items(cls)
        cls = options[rng.integers(len(options))][0]
        path.append(cls)
    return path


class TestFixedKernel:
    def test_singleton(self):
        kernel = fixed_kernel(1)
        assert kernel.class_list() == ((0,),)
        assert kernel.successor_items((0,)) == (((0,), 1.0),)
        assert kernel.budget_bound(100) == 1.0

    def test_self_loops(self):
        kernel = fixed_kernel(3)
        assert len(kernel.class_list()) == 3
        for m in range(3):
            assert kernel.successor_items((m,)) == (((m,), 1.0),)

    def test_uniform_init(self):
        np.testing.assert_allclose(fixed_kernel(4).initial_weights(), 0.25)

    def test_budget(self):
        assert fixed_kernel(5).budget_bound(10) == pytest.approx(1 + math.log(5), rel=1e-15)


class TestCyclicKernel:
    def test_successor_advances_by_sigma(self):
        kernel = cyclic_kernel(2)
        assert kernel.successor_items((0, 1)) == (((1, 1), 1.0),)
        assert kernel.successor_items((1, 1)) == (((0, 1), 1.0),)
        assert kernel.successor_items((0, 0)) == (((0, 0), 1.0),)

    def test_single_expert_degenerates_to_self_loop(self):
        kernel = cyclic_kernel(1)
        assert kernel.class_list() == ((0, 0),)
        assert kernel.successor_items((0, 0)) == (((0, 0), 1.0),)

    def test_class_count_is_m_squared(self):
        assert len(cyclic_kernel(5).class_list()) == 25

    def test_budget_for_eight_experts(self):
        assert cyclic_kernel(8).budget_bound(10_000) == pytest.approx(
            1 + 2 * math.log(8), rel=1e-15
        )

    @given(st.integers(1, 6))
    def test_successor_map_is_a_permutation(self, experts):
        kernel = cyclic_kernel(experts)
        tb = kernel.tables
        images = {kernel.successor_items(cls)[0][0] for cls in tb.classes}
        assert images == set(tb.classes)


class TestSwitchingKernel:
    def test_row_values(self):
        kernel = switching_kernel(2, 0.5)
        assert dict(kernel.successor_items((0,))) == {(0,): 0.5, (1,): 0.5}

    def test_small_switch_weight_approaches_fixed_rows(self):
        kernel = switching_kernel(3, 1e-9)
        row = dict(kernel.successor_items((1,)))
        assert row[(1,)] == pytest.approx(1.0, abs=2e-9)
        assert row[(0,)] == pytest.approx(5e-10, rel=1e-6)

    def test_parameter_range_enforced(self):
        with pytest.raises(ConfigError):
            switching_kernel(2, 0.0)
        with pytest.raises(ConfigError):
            switching_kernel(2, 1.0)
        with pytest.raises(ConfigError):
            switching_kernel(1, 0.5)


class TestKernelValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ConfigError, match="sums to"):
            TransitionKernel("bad", 2, [(0,), (1,)], {(0,): [((0,), 0.5)], (1,): [((1,), 1.0)]})

    def test_weights_must_be_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            TransitionKernel(
                "bad", 2, [(0,), (1,)],
                {(0,): [((0,), 1.5), ((1,), -0.5)], (1,): [((1,), 1.0)]},
            )

    def test_successor_must_be_in_class_space(self):
        with pytest.raises(ConfigError, match="not in the class space"):
            TransitionKernel("bad", 1, [(0,)], {(0,): [((1,), 1.0)]})

    def test_expert_outside_range(self):
        with pytest.raises(ConfigError, match="outside"):
            TransitionKernel("bad", 2, [(2,)], {(2,): [((2,), 1.0)]})

    def test_missing_expert_warns(self):
        with pytest.warns(UserWarning, match="no class for experts"):
            TransitionKernel("partial", 3, [(0,), (1,)], {(0,): [((0,), 1.0)], (1,): [((1,), 1.0)]})

    def test_from_dense_round_trips(self):
        classes = [(0,), (1,)]
        kernel = TransitionKernel.from_dense(
            "dense", 2, classes, [[0.9, 0.1], [0.0, 1.0]]
        )
        assert dict(kernel.successor_items((0,))) == {(0,): 0.9, (1,): 0.1}
        assert kernel.successor_items((1,)) == (((1,), 1.0),)

    @given(BUILTINS)
    def test_rows_sum_to_one(self, kernel):
        for cls in kernel.class_list():
            total = math.fsum(w for _, w in kernel.successor_items(cls))
            assert abs(total - 1.0) <= 1e-12


class TestClassBudget:
    def test_cyclic_in_class_path(self):
        kernel = cyclic_kernel(3)
        path = [(0, 1), (1, 1), (2, 1), (0, 1)]
        assert class_budget(kernel, path) == pytest.approx(1 + 2 * math.log(3), rel=1e-15)

    def test_minimal_class(self):
        kernel = fixed_kernel(1)
        assert class_budget(kernel, [(0,)] * 5) == 1.0

    def test_one_round_game(self):
        assert class_budget(cyclic_kernel(4), [(2, 1)]) == 1.0

    def test_switching_one_switch(self):
        kernel = switching_kernel(2, 0.1)
        path = [(0,), (0,), (1,)]
        expected = 1 + math.log(2) - math.log(0.1) - math.log(0.9)
        assert class_budget(kernel, path) == pytest.approx(expected, rel=1e-14)

    def test_switching_zero_switches(self):
        kernel = switching_kernel(2, 0.1)
        expected = 1 + math.log(2) - 9 * math.log(0.9)
        assert class_budget(kernel, [(0,)] * 10) == pytest.approx(expected, rel=1e-14)

    def test_out_of_class_transition_rejected(self):
        kernel = cyclic_kernel(2)
        with pytest.raises(OutOfClassError, match="zero weight"):
            class_budget(kernel, [(0, 1), (0, 1)])  # must move to (1, 1)

    def test_unknown_class_rejected(self):
        with pytest.raises(OutOfClassError):
            class_budget(fixed_kernel(2), [(5,)])

    @given(BUILTINS, st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_in_class_paths_never_exceed_declared_budget(self, kernel, rounds, seed):
        rng = np.random.default_rng(seed)
        path = random_in_class_path(kernel, rounds, rng)
        assert class_budget(kernel, path) <= kernel.budget_bound(rounds) + 1e-9


class TestBestCompetitor:
    def test_single_round_picks_argmin(self):
        for kernel in (fixed_kernel(3), cyclic_kernel(3), switching_kernel(3, 0.2)):
            path, loss = best_competitor(kernel, [[0.5, 0.1, 0.9]])
            assert path[0][0] == 1
            assert loss == 0.1

    def test_fixed_kernel_best_column(self):
        table = np.array([[1.0, 0.0, 2.0], [1.0, 0.5, 0.0], [0.0, 0.2, 2.0]])
        path, loss = best_competitor(fixed_kernel(3), table)
        assert path == ((1,), (1,), (1,))
        assert loss == pytest.approx(0.7, rel=1e-15)

    def test_cyclic_tracks_moving_expert(self):
        # expert (t mod 2) is free, the other costs 1: the sigma=1 class wins
        table = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        path, loss = best_competitor(cyclic_kernel(2), table)
        assert loss == 0.0
        assert path == ((0, 1), (1, 1), (0, 1), (1, 1))

    def test_ties_break_lexicographically(self):
        table = np.zeros((3, 2))
        path, loss = best_competitor(cyclic_kernel(2), table)
        assert loss == 0.0
        assert path == ((0, 0), (0, 0), (0, 0))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            best_competitor(fixed_kernel(2), np.zeros((0, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            best_competitor(fixed_kernel(2), np.zeros((3, 4)))

    @given(
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["fixed", "cyclic", "switching"]),
    )
    @settings(deadline=None, max_examples=60)
    def test_dp_equals_enumeration(self, experts, rounds, seed, name):
        if name == "switching" and experts < 2:
            experts = 2
        kernel = {
            "fixed": fixed_kernel,
            "cyclic": cyclic_kernel,
            "switching": lambda m: switching_kernel(m, 0.2),
        }[name](experts)
        table = np.random.default_rng(seed).random((rounds, experts))
        path, loss = best_competitor(kernel, table)
        truth = exhaustive_best(kernel, table)
        assert path == truth.classes
        assert loss == truth.cum_loss


class TestUserKernels:
    def test_dense_user_kernel_budget(self):
        # lazy random walk over three experts as a user-defined class
        classes = [(0,), (1,), (2,)]
        matrix = [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]]
        kernel = TransitionKernel.from_dense("lazy-walk", 3, classes, matrix)
        assert kernel.budget_bound(10) is None  # user kernels may not declare one
        expected = 1 + math.log(3) - math.log(0.8) - math.log(0.2)
        assert class_budget(kernel, [(0,), (0,), (1,)]) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(OutOfClassError):
            class_budget(kernel, [(0,), (2,)])  # zero-weight hop

    def test_user_kernel_competitor_dp_agrees_with_enumeration(self):
        classes = [(0,), (1,)]
        kernel = TransitionKernel.from_dense("drifty", 2, classes, [[0.7, 0.3], [0.4, 0.6]])
        table = np.random.default_rng(20).random((5, 2))
        path, loss = best_competitor(kernel, table)
        truth = exhaustive_best(kernel, table)
        assert path == truth.classes and loss == truth.cum_loss


class TestBestPrefixLosses:
    def test_matches_per_prefix_dp(self):
        rng = np.random.default_rng(3)
        table = rng.random((7, 3))
        kernel = cyclic_kernel(3)
        prefix = best_prefix_losses(kernel, table)
        for t in range(1, 8):
            _, loss = best_competitor(kernel, table[:t])
            assert prefix[t - 1] == pytest.approx(loss, rel=1e-12)

    def test_single_expert_accumulates_column(self):
        table = np.array([[0.5], [0.25], [1.0]])
        np.testing.assert_allclose(
            best_prefix_losses(fixed_kernel(1), table), [0.5, 0.75, 1.75], rtol=1e-15
        )
