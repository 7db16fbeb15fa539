"""Tests for competition-class kernels, budgets, and the competitor DP."""

import copy
import dataclasses
import math
import re
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classhedge import kernels
from classhedge.aggregator import Aggregator
from classhedge.core import ConfigError, OutOfClassError, bound_var, gamma_from_budget
from classhedge.harness import ExperimentConfig, run_experiment
from classhedge.kernels import (
    EdgeList,
    FixedShare,
    Permutation,
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
    starts = [c for i, c in enumerate(kernel.classes) if kernel.init_weights[i] > 0]
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
        assert kernel.classes == ((0,),)
        assert kernel.successor_items((0,)) == (((0,), 1.0),)
        assert kernel.budget_bound(100) == 1.0

    def test_self_loops(self):
        kernel = fixed_kernel(3)
        assert len(kernel.classes) == 3
        for m in range(3):
            assert kernel.successor_items((m,)) == (((m,), 1.0),)

    def test_uniform_init(self):
        np.testing.assert_allclose(fixed_kernel(4).init_weights, 0.25)

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
        assert kernel.classes == ((0, 0),)
        assert kernel.successor_items((0, 0)) == (((0, 0), 1.0),)

    def test_class_count_is_m_squared(self):
        assert len(cyclic_kernel(5).classes) == 25

    def test_budget_for_eight_experts(self):
        assert cyclic_kernel(8).budget_bound(10_000) == pytest.approx(
            1 + 2 * math.log(8), rel=1e-15
        )

    @given(st.integers(1, 6))
    def test_successor_map_is_a_permutation(self, experts):
        kernel = cyclic_kernel(experts)
        images = {kernel.successor_items(cls)[0][0] for cls in kernel.classes}
        assert images == set(kernel.classes)


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

    @pytest.mark.parametrize(
        "classes, offender",
        [
            ([(-1,), (0,)], (-1,)),
            ([(0,), (3,), (3, 1)], (3,)),  # the first offender, not the last class
            ([(0,), (2**70,)], (2**70,)),  # past intp
            ([(-(2**70),), (1,)], (-(2**70),)),
        ],
    )
    def test_expert_range_names_the_first_offender(self, classes, offender):
        successors = {c: [(c, 1.0)] for c in classes}
        with pytest.raises(ConfigError, match=re.escape(f"class {offender} selects expert outside 0..1")):
            TransitionKernel("bad", 2, classes, successors)
        with pytest.raises(ConfigError, match=re.escape(f"class {offender} selects expert outside 0..1")):
            TransitionKernel.from_dense("bad", 2, classes, np.eye(len(classes)))

    def test_missing_expert_warns(self):
        with pytest.warns(UserWarning, match="no class for experts") as record:
            TransitionKernel("partial", 3, [(0,), (1,)], {(0,): [((0,), 1.0)], (1,): [((1,), 1.0)]})
        assert record[0].filename == __file__

    def test_from_dense_missing_expert_warns_at_the_caller(self):
        with pytest.warns(UserWarning, match="no class for experts") as record:
            TransitionKernel.from_dense("partial", 3, [(0,), (1,)], np.eye(2))
        assert record[0].filename == __file__

    def test_from_dense_round_trips(self):
        classes = [(0,), (1,)]
        kernel = TransitionKernel.from_dense(
            "dense", 2, classes, [[0.9, 0.1], [0.0, 1.0]]
        )
        assert dict(kernel.successor_items((0,))) == {(0,): 0.9, (1,): 0.1}
        assert kernel.successor_items((1,)) == (((1,), 1.0),)

    @given(BUILTINS)
    def test_rows_sum_to_one(self, kernel):
        for cls in kernel.classes:
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

    @pytest.mark.parametrize(
        "kernel",
        [fixed_kernel(3), cyclic_kernel(3), switching_kernel(3, 0.2),
         TransitionKernel.from_dense("lazy-walk", 2, [(0,), (1,)], [[0.75, 0.25], [0.5, 0.5]])],
        ids=lambda k: f"{k.name}-{k.num_classes}",
    )
    def test_path_is_a_tuple_of_class_tuples(self, kernel):
        width = kernels._BLOCK // kernel.num_classes
        rng = np.random.default_rng(kernel.num_classes)
        for rounds in (1, 2, width + 1):  # one round: itemgetter alone would return the class itself
            table = rng.integers(0, 3, (rounds, kernel.num_experts)).astype(float)
            path, loss = best_competitor(kernel, table)
            assert type(path) is tuple and len(path) == rounds
            assert all(type(cls) is tuple for cls in path)
            assert (path, loss) == straight_loop_dp(kernel, table)[:2]

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
        assert best_competitor(kernel, table) == exhaustive_best(kernel, table)


class TestUserKernels:
    def test_dense_user_kernel_budget(self):
        # lazy random walk over three experts as a user-defined class
        classes = [(0,), (1,), (2,)]
        matrix = [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]]
        kernel = TransitionKernel.from_dense("lazy-walk", 3, classes, matrix)
        assert kernel.budget_bound(10) == 1.0 + math.log(3) + 9 * -math.log(0.1)
        expected = 1 + math.log(3) - math.log(0.8) - math.log(0.2)
        assert class_budget(kernel, [(0,), (0,), (1,)]) == pytest.approx(expected, rel=1e-14)
        with pytest.raises(OutOfClassError):
            class_budget(kernel, [(0,), (2,)])  # zero-weight hop

    def test_user_kernel_competitor_dp_agrees_with_enumeration(self):
        classes = [(0,), (1,)]
        kernel = TransitionKernel.from_dense("drifty", 2, classes, [[0.7, 0.3], [0.4, 0.6]])
        table = np.random.default_rng(20).random((5, 2))
        path, loss = best_competitor(kernel, table)
        assert exhaustive_best(kernel, table) == (path, loss)


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


LAZY_WALK = [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]]


class TestTransitionStructure:
    """The kernel tables read permutation and fixed-share structure off their edges."""

    @pytest.mark.parametrize("kernel", [fixed_kernel(1), fixed_kernel(4), cyclic_kernel(1), cyclic_kernel(3)])
    def test_fixed_and_cyclic_are_permutations(self, kernel):
        assert isinstance(kernel._structure, Permutation)

    @pytest.mark.parametrize("experts, weight", [(2, 0.5), (2, 0.1), (3, 0.2), (8, 1 - 1e-9)])
    def test_switching_is_fixed_share(self, experts, weight):
        assert switching_kernel(experts, weight)._structure == FixedShare(1.0 - weight, weight / (experts - 1))

    def test_dense_fixed_share_detected(self):
        matrix = np.full((3, 3), 0.25) + np.eye(3) * 0.25
        kernel = TransitionKernel.from_dense("dense-share", 3, [(0,), (1,), (2,)], matrix)
        assert kernel._structure == FixedShare(0.5, 0.25)

    def test_dense_permutation_detected(self):
        matrix = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        kernel = TransitionKernel.from_dense("rotate", 3, [(0,), (1,), (2,)], matrix)
        assert isinstance(kernel._structure, Permutation)

    def test_other_kernels_have_no_structure(self):
        lazy = TransitionKernel.from_dense("lazy-walk", 3, [(0,), (1,), (2,)], LAZY_WALK)
        drifty = TransitionKernel.from_dense("drifty", 2, [(0,), (1,)], [[0.7, 0.3], [0.4, 0.6]])
        many_to_one = TransitionKernel("merge", 2, [(0,), (1,)], {(0,): [((0,), 1.0)], (1,): [((0,), 1.0)]})
        for kernel in (lazy, drifty, many_to_one):
            assert isinstance(kernel._structure, EdgeList)


class TestFixedShareKeepsNoEdges:
    """A switching kernel holds no k^2 edge arrays, yet answers for its rows,
    budgets and least weight with the bits of an edge list over the same matrix."""

    def test_no_array_grows_with_the_edges(self):
        kernel = switching_kernel(512, 0.1)
        arrays = list(vars(kernel).values())
        arrays += [getattr(kernel._structure, f.name) for f in dataclasses.fields(kernel._structure)]
        assert all(x.size <= 512 for x in arrays if isinstance(x, np.ndarray))

    @pytest.mark.parametrize("experts", [2, 3, 8])
    @pytest.mark.parametrize("weight", [1e-3, 0.1, 0.9])
    def test_rows_and_budgets_match_a_dense_edge_list(self, experts, weight):
        kernel = switching_kernel(experts, weight)
        matrix = np.full((experts, experts), weight / (experts - 1))
        np.fill_diagonal(matrix, 1.0 - weight)
        twin = TransitionKernel.from_dense("dense", experts, kernel.classes, matrix)
        src, dst = np.nonzero(matrix)
        starts = np.searchsorted(src, np.arange(experts))
        twin._structure = EdgeList.of(src, dst, matrix[src, dst], starts, experts)
        assert isinstance(kernel._structure, FixedShare)
        assert_rows_equal(twin, kernel)
        for rounds in (0, 1, 2, 100, 10_000):
            assert kernel.budget_bound(rounds) == twin.budget_bound(rounds)
        rng = np.random.default_rng(experts)
        for rounds in (1, 2, 7, 40):
            path = random_in_class_path(kernel, rounds, rng)
            assert class_budget(kernel, path) == class_budget(twin, path)
        for bad in ([(0,), (experts,)], [(experts,)]):
            for made in (kernel, twin):
                with pytest.raises(OutOfClassError):
                    class_budget(made, bad)

    def test_switch_weight_that_underflows_is_refused(self):
        # w / (M - 1) rounds to 0.0: one checked row stands for all of them
        with pytest.raises(ConfigError, match=re.escape("transition weight (0,) -> (1,) must be positive")):
            switching_kernel(3, 5e-324)


class TestStructuredDP:
    """A complete kernel with unequal weights takes the generic DP; the DPs
    depend only on the edge set, so it must agree bit for bit with the
    fixed-share closed form of the switching kernel."""

    MATRIX = [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.05, 0.9]]

    def kernels(self):
        generic = TransitionKernel.from_dense("complete", 3, [(0,), (1,), (2,)], self.MATRIX)
        assert isinstance(generic._structure, EdgeList)
        return generic, switching_kernel(3, 0.2)

    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_and_path_dps_match_exactly(self, seed):
        generic, share = self.kernels()
        rng = np.random.default_rng(seed)
        rounds = int(rng.integers(1, 40))
        # integer losses make ties, which exercise the lexicographic tie-break
        table = rng.integers(0, 3, (rounds, 3)).astype(float) if seed % 2 else rng.random((rounds, 3))
        np.testing.assert_array_equal(
            best_prefix_losses(generic, table), best_prefix_losses(share, table)
        )
        assert best_competitor(generic, table) == best_competitor(share, table)


def mapping_form(name, experts, weight=0.1):
    """A built-in class written out as a successor mapping, rows and edges reversed."""
    if name == "fixed":
        classes = [(m,) for m in range(experts)]
        rows = {(m,): [((m,), 1.0)] for m in range(experts)}
    elif name == "cyclic":
        classes = [(m, s) for m in range(experts) for s in range(experts)]
        rows = {(m, s): [(((m + s) % experts, s), 1.0)] for m, s in classes}
    else:
        classes = [(m,) for m in range(experts)]
        stay, off = 1.0 - weight, weight / (experts - 1)
        rows = {(m,): [((d,), stay if d == m else off) for d in range(experts)] for m in range(experts)}
    successors = {a: list(reversed(rows[a])) for a in reversed(classes)}
    return TransitionKernel(name, experts, reversed(classes), successors)


# every table of a kernel, the transition structure and its own tables included,
# and the class index, a property built on first read
TABLE_NAMES = [
    "classes", "num_experts", "_expert_of", "_present_experts", "_expert_starts", "_class_seg",
    "init_weights", "_one_per_expert", "_structure", "_index",
]


def assert_same_table(x, y, name):
    if isinstance(x, np.ndarray):
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name
    elif dataclasses.is_dataclass(x):  # the structure: its kind and every table it compares
        assert type(x) is type(y), name
        for f in dataclasses.fields(x):
            if f.compare:
                assert_same_table(getattr(x, f.name), getattr(y, f.name), f"{name}.{f.name}")
    else:
        assert x == y and type(x) is type(y), name


def assert_tables_equal(a, b):
    for name in TABLE_NAMES:
        x = a[name] if isinstance(a, dict) else getattr(a, name)
        assert_same_table(x, getattr(b, name), name)


def assert_rows_equal(rows, kernel):
    """Every class's successor list, classes and weights bit for bit: ``rows``
    maps each class to its list, or is a second kernel."""
    for cls in kernel.classes:
        want = rows.successor_items(cls) if isinstance(rows, TransitionKernel) else rows[cls]
        got = kernel.successor_items(cls)
        assert [b for b, _ in got] == [b for b, _ in want], cls
        assert np.array([w for _, w in got]).tobytes() == np.array([w for _, w in want]).tobytes(), cls


BUILT = [("fixed", m) for m in (1, 2, 3, 8, 64)] + [("cyclic", m) for m in (1, 2, 3, 8, 64)] + [
    ("switching", m) for m in (2, 3, 8, 64)
]


class TestArrayBuild:
    """The built-ins and from_dense make edge arrays directly; their tables must
    equal those of the same kernel given as a successor mapping."""

    @pytest.mark.parametrize("name, experts", BUILT)
    def test_builtin_tables_equal_mapping_form(self, name, experts):
        made = {"fixed": fixed_kernel, "cyclic": cyclic_kernel}.get(
            name, lambda m: switching_kernel(m, 0.1)
        )(experts)
        mapped = mapping_form(name, experts)
        assert_tables_equal(made, mapped)
        assert_rows_equal(mapped, made)

    @pytest.mark.parametrize(
        "classes, matrix",
        [
            ([(2,), (0,), (1,)], LAZY_WALK),
            ([(0,), (1,), (2,)], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
            ([(1,), (0,), (2,)], np.full((3, 3), 0.25) + np.eye(3) * 0.25),
            ([(1, 1), (0, 0), (1, 0)], [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.3, 0.0, 0.7]]),
        ],
    )
    def test_from_dense_tables_equal_mapping_form(self, classes, matrix):
        mat = np.asarray(matrix)
        successors = {
            a: [(b, mat[i, j]) for j, b in enumerate(classes) if mat[i, j] != 0.0]
            for i, a in enumerate(classes)
        }
        experts = 1 + max(c[0] for c in classes)
        mapped = TransitionKernel("m", experts, classes, successors)
        dense = TransitionKernel.from_dense("m", experts, classes, matrix)
        assert_tables_equal(dense, mapped)
        assert_rows_equal(mapped, dense)

    def test_every_table_is_compared(self):
        # a table added to the kernel must join TABLE_NAMES, which the twin and reference comparisons read
        made = [mapping_form("cyclic", 3), TransitionKernel.from_dense("dense", 3, [(0,), (1,), (2,)], LAZY_WALK)]
        made += [
            {"fixed": fixed_kernel, "cyclic": cyclic_kernel}.get(name, lambda m: switching_kernel(m, 0.1))(experts)
            for name, experts in BUILT
        ]
        for kernel in made:
            assert set(vars(kernel)) - {"name", "_index"} == set(TABLE_NAMES) - {"_index"}, kernel

    def test_switching_build_peak_memory(self):
        # the finished M=512 tables hold no edge arrays: about 90 kB of class tables
        tracemalloc.start()
        try:
            kernel = switching_kernel(512, 0.1)  # held, so that its tables count as retained
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 26e6
        assert peak <= 1.5 * retained, (peak, retained)


def reference_tables(edges, experts, classes=None, init=None):
    """Every table of a kernel of ``experts`` experts given as (source,
    destination, weight) class triples, made independently of the build with
    np.lexsort and np.unique."""
    classes = sorted(set(classes or [a for a, _, _ in edges]))
    index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    src = np.array([index[a] for a, _, _ in edges], dtype=np.intp)
    dst = np.array([index[b] for _, b, _ in edges], dtype=np.intp)
    w = np.array([x for _, _, x in edges], dtype=float)
    by_src, by_dst = np.lexsort((dst, src)), np.lexsort((src, dst))
    expert_of = np.array([c[0] for c in classes], dtype=np.intp)
    present, expert_starts, per_expert = np.unique(expert_of, return_index=True, return_counts=True)
    dst_ids, starts, per_dst = np.unique(dst[by_dst], return_index=True, return_counts=True)
    if len(edges) == k and len(dst_ids) == k:
        structure = Permutation(dst[by_src], w[by_src], src[by_dst], np.log(w[by_dst]))
    else:
        row_starts = np.unique(src[by_src], return_index=True)[1]
        structure = EdgeList(src[by_src], dst[by_src], w[by_src], row_starts,
                             src[by_dst], np.log(w[by_dst]), starts, dst_ids,
                             np.repeat(np.arange(len(dst_ids)), per_dst))
    if k >= 2 and len(edges) == k * k:  # distinct pairs, so every pair
        stay, off = ({x for a, b, x in edges if (a == b) == diagonal} for diagonal in (True, False))
        if len(stay) == len(off) == 1:
            structure = FixedShare(float(stay.pop()), float(off.pop()))
    rows = {c: [] for c in classes}
    for e in by_src.tolist():
        rows[classes[src[e]]].append((classes[dst[e]], w[e]))
    if init is None:
        init_weights = np.full(k, 1.0 / k)
    else:
        init_weights = np.array([init.get(c, 0.0) for c in classes])
    return {
        "classes": tuple(classes),
        "_index": index,
        "num_experts": experts,
        "_expert_of": expert_of,
        "_present_experts": present,
        "_expert_starts": expert_starts,
        "_class_seg": np.repeat(np.arange(len(present)), per_expert),
        "init_weights": init_weights,
        "_one_per_expert": expert_of.tolist() == list(range(experts)),
        "_structure": structure,
        # each class's successor list, for kernels whose structure keeps no edges
        "rows": rows,
    }


def builtin_edges(name, experts, weight=0.1):
    if name == "fixed":
        return [((m,), (m,), 1.0) for m in range(experts)]
    if name == "cyclic":
        return [((m, s), ((m + s) % experts, s), 1.0) for m in range(experts) for s in range(experts)]
    stay, off = 1.0 - weight, weight / (experts - 1)
    return [((a,), (b,), stay if a == b else off) for a in range(experts) for b in range(experts)]


def user_kernels():
    """(kernel, reference) pairs of mapping and from_dense kernels: unsorted
    classes and edges, zero entries, an expert with no class, initial weights."""
    rng = np.random.default_rng(11)
    out = []
    for trial in range(8):
        k = int(rng.integers(1, 9))
        experts = k + 1  # expert k has no class
        classes = [(int(rng.integers(0, k)), i) for i in range(k)]
        # every fourth kernel a permutation, the others sparse
        mat = rng.random((k, k)) * (rng.random((k, k)) < 0.5) * (trial % 4 != 0)
        mat[np.arange(k), rng.permutation(k)] += rng.random(k) + 1e-3
        mat /= mat.sum(axis=1, keepdims=True)
        init = None
        if trial % 2:
            pi = rng.random(k) * (rng.random(k) < 0.7)
            pi[0] += 1.0
            init = dict(zip(classes, (pi / pi.sum()).tolist()))
        edges = [(classes[i], classes[j], mat[i, j]) for i, j in zip(*np.nonzero(mat))]
        ref = reference_tables(edges, experts, classes, init)
        with pytest.warns(UserWarning, match="no class for experts"):
            out.append((TransitionKernel.from_dense("dense", experts, classes, mat, init), ref))
        successors = {}
        for a, b, w in reversed(edges):
            successors.setdefault(a, []).append((b, w))
        with pytest.warns(UserWarning, match="no class for experts"):
            out.append((TransitionKernel("mapping", experts, reversed(classes), successors, init), ref))
    return out


class TestBuildReference:
    """Every table, the derived ones included, equals one made independently."""

    @pytest.mark.parametrize("name, experts", BUILT)
    def test_builtins(self, name, experts):
        made = {"fixed": fixed_kernel, "cyclic": cyclic_kernel}.get(
            name, lambda m: switching_kernel(m, 0.1)
        )(experts)
        ref = reference_tables(builtin_edges(name, experts), experts)
        assert_tables_equal(ref, made)
        assert_rows_equal(ref["rows"], made)
        # the built-ins hand over their expert map, and the groups are read off it: all intp
        for table in ("_expert_of", "_present_experts", "_expert_starts", "_class_seg"):
            assert getattr(made, table).dtype == np.intp, table

    def test_user_kernels(self):
        kinds = set()
        for kernel, ref in user_kernels():
            assert_tables_equal(ref, kernel)
            assert_rows_equal(ref["rows"], kernel)
            kinds.add(type(kernel._structure))
        assert {Permutation, EdgeList} <= kinds

    def test_user_kernel_with_missing_expert_and_uneven_groups(self):
        # experts 0, 2 and 3 hold 3, 1 and 2 classes, expert 1 none
        classes = [(3, 1), (0, 2), (2, 0), (0, 0), (3, 0), (0, 1)]
        mat = np.roll(np.eye(6), 1, axis=1) * 0.5 + np.eye(6) * 0.5
        edges = [(classes[i], classes[j], mat[i, j]) for i, j in zip(*np.nonzero(mat))]
        ref = reference_tables(edges, 4, classes)
        successors = {a: [(b, w) for x, b, w in edges if x == a] for a in classes}
        for build in (
            lambda: TransitionKernel.from_dense("uneven", 4, classes, mat),
            lambda: TransitionKernel("uneven", 4, classes, successors),
        ):
            with pytest.warns(UserWarning, match=re.escape("no class for experts [1]")) as record:
                kernel = build()
            assert record[0].filename == __file__
            assert_tables_equal(ref, kernel)
            assert kernel._class_seg.tolist() == [0, 0, 0, 1, 2, 2]
            assert kernel._expert_starts.tolist() == [0, 3, 4]
            assert not kernel._one_per_expert

    @pytest.mark.parametrize("upper", [True, False], ids=["above", "below"])
    @pytest.mark.parametrize("fsum_rejects", [True, False], ids=["fsum-rejects", "fsum-accepts"])
    def test_row_sum_decided_as_fsum_decides(self, upper, fsum_rejects):
        # a row of 1,000 weights whose float sum and exact sum fall on
        # opposite sides of the edge 1 +- 1e-12
        n, edge = 1000, 1.0 + 1e-12 if upper else 1.0 - 1e-12
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            w = rng.random(n) ** 4
            w *= (edge + rng.uniform(-8e-16, 8e-16)) / math.fsum(w)
            exact, floated = math.fsum(w), np.add.reduceat(w, [0])[0]
            if (abs(exact - 1.0) > 1e-12) == fsum_rejects != (abs(floated - 1.0) > 1e-12):
                break
        else:
            pytest.fail("no row straddles the edge")
        classes = [(0, j) for j in range(n)]
        successors = {c: [(c, 1.0)] for c in classes[1:]}
        successors[classes[0]] = list(zip(classes, w.tolist()))
        if fsum_rejects:
            with pytest.raises(ConfigError, match=re.escape(f"row for (0, 0) sums to {exact!r}, not 1")):
                TransitionKernel("edge", 1, classes, successors)
        else:
            assert TransitionKernel("edge", 1, classes, successors).num_classes == n

    @pytest.mark.parametrize("dense", [True, False], ids=["from_dense", "mapping"])
    def test_overflowing_row_sums_to_inf(self, dense):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape("row for (0,) sums to inf, not 1")):
                if dense:
                    TransitionKernel.from_dense("x", 2, TWO, [[1e308, 1e308], [0.5, 0.5]])
                else:
                    TransitionKernel(
                        "x", 2, TWO, {(0,): [((0,), 1e308), ((1,), 1e308)], (1,): [((1,), 1.0)]}
                    )

    def test_finite_failing_sum_is_exactly_rounded(self):
        weights = [0.1] * 10 + [1e-3]
        classes = [(0, j) for j in range(len(weights))]
        successors = {c: [(c, 1.0)] for c in classes[1:]}
        successors[classes[0]] = list(zip(classes, weights))
        total = math.fsum(weights)
        assert total != sum(weights)
        with pytest.raises(ConfigError, match=re.escape(f"sums to {total!r}, not 1")):
            TransitionKernel("x", 1, classes, successors)


class TestDerivedTables:
    """Each structure builds only its own tables: the edge list its (dst, src)
    tables with the kernel, the permutation its orbit block on first use."""

    def test_fixed_share_never_builds_destination_tables(self):
        with mock.patch.object(EdgeList, "of", wraps=EdgeList.of) as derive:
            run_experiment(ExperimentConfig(experts=8, rounds=50, kernel="switching"))
            kernel = switching_kernel(8, 0.1)
            table = np.random.default_rng(0).random((50, 8))
            best_competitor(kernel, table)
            best_prefix_losses(kernel, table)
        derive.assert_not_called()
        assert dataclasses.astuple(kernel._structure) == (0.9, 0.1 / 7)

    def test_destination_tables_built_once(self):
        with mock.patch.object(EdgeList, "of", wraps=EdgeList.of) as derive:
            kernel = TransitionKernel.from_dense("lazy-walk", 3, [(0,), (1,), (2,)], LAZY_WALK)
            agg = Aggregator(kernel, 1.0)
            for losses in np.random.default_rng(0).random((5, 3)):
                agg.probabilities()
                agg.observe(losses)
            best_prefix_losses(kernel, np.ones((4, 3)))
            best_competitor(kernel, np.ones((4, 3)))
        derive.assert_called_once()
        assert isinstance(kernel._structure, EdgeList)

    def test_concurrent_first_reads_agree(self):
        # kernels are shared across threads: racing first DP calls may each derive the orbit block
        table = np.random.default_rng(0).random((40, 8))

        def read_all(kernel):
            return best_competitor(kernel, table), best_prefix_losses(kernel, table).tolist()

        want = read_all(cyclic_kernel(8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for _ in range(10):
                    kernel = cyclic_kernel(8)
                    reads = [pool.submit(read_all, kernel) for _ in range(8)]
                    for read in reads:
                        assert read.result(timeout=10) == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "make",
        [fixed_kernel, cyclic_kernel, lambda m: switching_kernel(m, 0.1)],
        ids=["fixed", "cyclic", "switching"],
    )
    def test_class_index_built_on_first_read(self, make):
        kernel = make(4)
        # set-up, rounds, budgets and both DPs never read the index
        agg = Aggregator(kernel, gamma_from_budget(kernel.budget_bound(6)))
        table = np.random.default_rng(0).random((6, 4))
        for losses in table:
            agg.run_round(losses, np.random.default_rng(1))
        best_competitor(kernel, table)
        best_prefix_losses(kernel, table)
        assert "_index" not in vars(kernel)
        kernel.successor_items(kernel.classes[-1])
        assert vars(kernel)["_index"] == {c: i for i, c in enumerate(kernel.classes)}

    def test_concurrent_first_index_reads_agree(self):
        # kernels are shared across threads: racing first reads may each build the index
        def read_index(kernel):
            return [kernel.successor_items(c) for c in kernel.classes[::7]], kernel._index

        want = read_index(cyclic_kernel(8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                for _ in range(20):
                    kernel = cyclic_kernel(8)
                    reads = [pool.submit(read_index, kernel) for _ in range(2)]
                    for read in reads:
                        assert read.result(timeout=10) == want
                    assert kernel._index == want[1]
        finally:
            sys.setswitchinterval(interval)

    def test_orbit_block_built_once_per_kernel(self):
        kernel = cyclic_kernel(8)
        table = np.random.default_rng(0).random((300, 8))
        with mock.patch.object(kernels, "_orbit_rows", wraps=kernels._orbit_rows) as derive:
            path, loss = best_competitor(kernel, table)
            prefix = best_prefix_losses(kernel, table)
            best_competitor(kernel, table[:5])
        derive.assert_called_once()
        assert kernel._structure.orbit.shape == (kernels._BLOCK // 64, 64)
        # a block narrower than the cached one reads its first rows; a wider one rebuilds it
        for block in (64, 50 * 64, 700 * 64):
            with mock.patch.object(kernels, "_BLOCK", block):
                assert best_competitor(kernel, table) == (path, loss)
                np.testing.assert_array_equal(best_prefix_losses(kernel, table), prefix)
                assert len(kernel._structure.orbit) >= min(300, block // 64)


TWO = [(0,), (1,)]
NAN = float("nan")


class TestBuildErrors:
    """Each build error through the successor mapping and through from_dense.

    TestKernelValidation covers negative weights, destinations outside the
    class space and experts outside 0..M-1 through the mapping."""

    @pytest.mark.parametrize(
        "classes, successors, match",
        [
            (TWO, {(0,): [((0,), NAN), ((1,), 0.5)], (1,): [((1,), 1.0)]}, "positive"),
            (TWO, {(0,): [((0,), 1.0), ((1,), 0.0)], (1,): [((1,), 1.0)]}, "positive"),
            (TWO, {(0,): [((0,), 1.0)]}, "no successor row"),
            (TWO, {(0,): [((0,), 0.5), ((1,), 0.5 + 2e-12)], (1,): [((1,), 1.0)]}, "sums to"),
            (TWO, {(0,): [((0,), 1.0)], (1,): [((1,), 1.0 - 2e-12)]}, "sums to"),
            (TWO, {(0,): [((0,), 0.5), ((0,), 0.3), ((1,), 0.2)], (1,): [((1,), 1.0)]}, "more than once"),
            (
                TWO,
                {(0,): [((0,), 1.0)], (1,): [((1,), 1.0)], (5,): [((0,), 1.0)]},
                "not in the class space",
            ),
        ],
        ids=["nan", "zero", "missing-row", "sum-multi", "sum-single", "duplicate", "extra-row"],
    )
    def test_mapping(self, classes, successors, match):
        with pytest.raises(ConfigError, match=match):
            TransitionKernel("bad", 2, classes, successors)

    @pytest.mark.parametrize(
        "classes, matrix, match",
        [
            (TWO, [[NAN, 0.5], [0.0, 1.0]], "positive"),
            (TWO, [[1.5, -0.5], [0.0, 1.0]], "positive"),
            (TWO, [[0.0, 0.0], [0.0, 1.0]], "no successor row"),
            (TWO, [[0.5, 0.5 + 2e-12], [0.0, 1.0]], "sums to"),
            (TWO, [[1.0, 0.0], [0.0, 1.0 + 2e-12]], "sums to"),
            ([(0,), (0,), (1,)], [[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.0, 0.0, 1.0]], "more than once"),
            (TWO, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "does not match"),
            (TWO, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], "does not match"),
            ([(2,), (1,)], [[1.0, 0.0], [0.0, 1.0]], "outside"),
        ],
        ids=["nan", "negative", "zero-row", "sum-multi", "sum-single", "duplicate-class",
             "destination", "extra-row", "expert"],
    )
    def test_from_dense(self, classes, matrix, match):
        with pytest.raises(ConfigError, match=match):
            TransitionKernel.from_dense("bad", 2, classes, matrix)

    def test_row_sum_within_tolerance_builds(self):
        kernel = TransitionKernel("ok", 2, TWO, {(0,): [((0,), 0.5), ((1,), 0.5 + 5e-13)], (1,): [((1,), 1.0)]})
        assert kernel.successor_items((0,)) == (((0,), 0.5), ((1,), 0.5 + 5e-13))

    def test_zero_dense_entries_are_dropped(self):
        kernel = TransitionKernel.from_dense("ok", 2, TWO, [[1.0, 0.0], [0.0, 1.0]])
        assert isinstance(kernel._structure, Permutation) and len(kernel._structure.w) == 2

    @pytest.mark.parametrize(
        "src, dst, match",
        [([0, 2], [0, 1], "not in the class space"), ([0, 1], [-1, 1], "not in the class space"),
         ([1, 0, 1], [1, 0, 1], "more than once")],
    )
    def test_edge_arrays(self, src, dst, match):
        with pytest.raises(ConfigError, match=match):
            kernels._edge_structure(TWO, src, dst, np.full(len(src), 1.0))


def straight_loop_dp(kernel, table):
    """Dense min-plus DP with plain loops: (best path, its loss, prefix minima)."""
    k, rounds = kernel.num_classes, len(table)
    expert = [c[0] for c in kernel.classes]
    succ = [[kernel._index[b] for b, _ in kernel.successor_items(a)] for a in kernel.classes]
    cost = [[0.0] * k for _ in range(rounds)]
    cost[-1] = [float(table[-1][expert[i]]) for i in range(k)]
    for t in range(rounds - 2, -1, -1):
        cost[t] = [float(table[t][expert[i]]) + min(cost[t + 1][j] for j in succ[i]) for i in range(k)]
    starts = [i for i in range(k) if kernel.init_weights[i] > 0.0]
    cur = min(starts, key=lambda i: (cost[0][i], i))
    path = [cur]
    for t in range(1, rounds):
        cur = min(succ[cur], key=lambda j: (cost[t][j], j))
        path.append(cur)
    prefix, dp = [], [float(table[0][expert[i]]) if i in starts else math.inf for i in range(k)]
    prefix.append(min(dp))
    for t in range(1, rounds):
        carried = [math.inf] * k
        for i in range(k):
            for j in succ[i]:
                carried[j] = min(carried[j], dp[i])
        dp = [carried[j] + float(table[t][expert[j]]) for j in range(k)]
        prefix.append(min(dp))
    return tuple(kernel.classes[i] for i in path), cost[0][path[0]], prefix


def edge_list_twin(kernel):
    """The same kernel, its tables the same but with the edge-list structure,
    built from its successor lists."""
    edges = [(i, kernel._index[b], w) for i, a in enumerate(kernel.classes) for b, w in kernel.successor_items(a)]
    src, dst = (np.array([e[j] for e in edges], dtype=np.intp) for j in (0, 1))
    weights = np.array([e[2] for e in edges])
    starts = np.searchsorted(src, np.arange(kernel.num_classes))
    twin = copy.copy(kernel)
    twin._structure = EdgeList.of(src, dst, weights, starts, kernel.num_classes)
    return twin


def assert_same_bits(got, want):
    """Equal bytes, except that a zero may carry either sign: numpy's ``min``
    does not fix which of -0.0 and +0.0 it returns, and neither did the loops."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    zero = want == 0.0
    np.testing.assert_array_equal(got[zero], want[zero])
    assert got[~zero].tobytes() == want[~zero].tobytes()


ROTATE_WITH_INIT = TransitionKernel.from_dense(
    "rotate", 3, [(0,), (1,), (2,)], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    init_weights={(1,): 0.25, (2,): 0.75},
)
with pytest.warns(UserWarning, match="no class for experts"):
    # fixed share over classes of experts 0 and 2 only, with a prior on expert 0 alone
    SHARE_WITH_GAP = TransitionKernel.from_dense(
        "share", 3, [(0, 0), (0, 1), (2, 0)], np.full((3, 3), 0.25) + np.eye(3) * 0.25,
        init_weights={(0, 0): 0.25, (0, 1): 0.75},
    )


# a 4-class rotation whose paths start only in classes 1 and 3: the others carry +inf
ROTATE_EVEN = TransitionKernel.from_dense(
    "rotate", 4, [(m,) for m in range(4)], np.roll(np.eye(4), 1, axis=1),
    init_weights={(1,): 0.5, (3,): 0.5},
)


DP_KERNELS = [fixed_kernel(1), fixed_kernel(3), cyclic_kernel(1), cyclic_kernel(2), cyclic_kernel(3),
              cyclic_kernel(4), switching_kernel(2, 0.5), switching_kernel(4, 0.1), ROTATE_WITH_INIT,
              SHARE_WITH_GAP]


@st.composite
def block_games(draw):
    """(kernel, entries per DP block, loss table) with T at, one off, and past
    multiples of the block length; losses with exact ties, signed zeros and
    scale jumps of 1e+-150."""
    kernel = draw(st.one_of(
        st.sampled_from(DP_KERNELS + [cyclic_kernel(16)]),
        st.floats(1e-3, 0.999).map(lambda w: switching_kernel(64, w)),
    ))
    block = draw(st.sampled_from([kernels._BLOCK, 1, 50, 700]))
    width = max(1, block // kernel.num_classes)
    rounds = max(1, draw(st.sampled_from([1, 2, width - 1, width, width + 1, 2 * width + 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rounds, kernel.num_experts)
    if draw(st.booleans()):
        table = rng.integers(-2, 3, shape).astype(float)  # ties, and zeros of both signs below
    else:
        table = rng.standard_normal(shape)
    table[rng.random(shape) < 0.2] = -0.0
    table[rng.random(shape) < 0.1] = 0.0
    if draw(st.booleans()):
        scale = np.ones(rounds)
        for cut in np.sort(rng.integers(0, rounds, 3)):
            scale[cut:] = rng.choice([1e-150, 1.0, 1e150])
        table *= scale[:, None]
    return kernel, block, table


class TestClosedFormDP:
    """Permutation and fixed-share DPs give the same bits as the edge lists and a
    straight-loop DP, and keep at most one back-pointer per round."""

    @pytest.mark.parametrize("kernel", DP_KERNELS, ids=lambda k: f"{k.name}-{k.num_classes}")
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_straight_loop_and_edge_lists(self, kernel, seed):
        rng = np.random.default_rng(seed)
        rounds = int(rng.integers(1, 30))
        shape = (rounds, kernel.num_experts)
        table = rng.integers(0, 3, shape).astype(float) if seed % 2 else rng.standard_normal(shape)
        path, loss = best_competitor(kernel, table)
        prefix = best_prefix_losses(kernel, table)
        loop_path, loop_loss, loop_prefix = straight_loop_dp(kernel, table)
        assert (path, loss) == (loop_path, loop_loss)
        assert prefix.tolist() == loop_prefix
        twin = edge_list_twin(kernel)
        assert best_competitor(twin, table) == (path, loss)
        np.testing.assert_array_equal(best_prefix_losses(twin, table), prefix)

    @pytest.mark.parametrize("seed", range(10))
    def test_permutation_with_initial_weights_matches_enumeration(self, seed):
        table = np.random.default_rng(seed).integers(0, 3, (5, 3)).astype(float)
        assert best_competitor(ROTATE_WITH_INIT, table) == exhaustive_best(ROTATE_WITH_INIT, table)

    @pytest.mark.parametrize("kernel", [cyclic_kernel(16), switching_kernel(64, 0.1)], ids=["cyclic", "switching"])
    def test_no_per_class_back_pointers(self, kernel):
        # a (T-1) x k back-pointer table would take 4 MB (cyclic) or 1 MB (switching)
        # here, and so would the losses of every class and round at once
        table = np.random.default_rng(0).random((2000, kernel.num_experts))
        for dp in (best_competitor, best_prefix_losses):
            tracemalloc.start()
            try:
                dp(kernel, table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5e6, dp.__name__

    @pytest.mark.parametrize(
        "kernel", [cyclic_kernel(64), switching_kernel(64, 0.1)], ids=["cyclic", "switching"]
    )
    def test_prefix_dp_memory_does_not_grow_with_rounds(self, kernel):
        # a per-entry temporary of the table (a finiteness mask, say) would
        # take 640 kB here at one byte per entry
        table = np.random.default_rng(0).random((10_000, kernel.num_experts))
        tracemalloc.start()
        try:
            best_prefix_losses(kernel, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

    @given(game=block_games())
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_straight_loop_and_edge_lists(self, game):
        kernel, block, table = game
        with mock.patch.object(kernels, "_BLOCK", block):
            path, loss = best_competitor(kernel, table)
            prefix = best_prefix_losses(kernel, table)
        loop_path, loop_loss, loop_prefix = straight_loop_dp(kernel, table)
        assert path == loop_path
        assert_same_bits([loss], [loop_loss])
        assert_same_bits(prefix, loop_prefix)
        twin = edge_list_twin(kernel)
        twin_path, twin_loss = best_competitor(twin, table)
        assert twin_path == path
        assert_same_bits([loss], [twin_loss])
        assert_same_bits(prefix, best_prefix_losses(twin, table))

    @pytest.mark.parametrize(
        "kernel", [cyclic_kernel(4), cyclic_kernel(3), ROTATE_EVEN],
        ids=["paired-16", "float-9", "paired-4-starts"],
    )
    def test_running_sums_of_both_widths_keep_the_loops_bits(self, kernel):
        # T = 2B + 1: two blocks of B rounds accumulated down their rows (an even
        # class count two classes per complex addition, an odd one as floats) and
        # a one-round block; ties, zeros of both signs and 1e+-150 jumps
        width = kernels._BLOCK // kernel.num_classes
        rng = np.random.default_rng(width)
        table = rng.integers(-2, 3, (2 * width + 1, kernel.num_experts)).astype(float)
        table[rng.random(table.shape) < 0.2] = -0.0
        table[rng.random(table.shape) < 0.1] = 0.0
        table *= rng.choice([1e-150, 1.0, 1e150], (len(table), 1))
        path, loss = best_competitor(kernel, table)
        prefix = best_prefix_losses(kernel, table)
        loop_path, loop_loss, loop_prefix = straight_loop_dp(kernel, table)
        twin = edge_list_twin(kernel)
        twin_path, twin_loss = best_competitor(twin, table)
        assert path == loop_path == twin_path
        assert_same_bits([loss, loss], [loop_loss, twin_loss])
        assert_same_bits(prefix, loop_prefix)
        assert_same_bits(prefix, best_prefix_losses(twin, table))

    @pytest.mark.parametrize(
        "kernel",
        [fixed_kernel(5), fixed_kernel(8), cyclic_kernel(3), cyclic_kernel(4), cyclic_kernel(8), ROTATE_EVEN,
         ROTATE_WITH_INIT, switching_kernel(3, 0.2), switching_kernel(8, 0.1), SHARE_WITH_GAP],
        ids=lambda k: f"{k.name}-{k.num_classes}",
    )
    def test_row_minima_keep_the_bytes_of_min_over_each_row(self, kernel):
        # both DPs of each structure give the bytes they gave when each block (or the
        # table) took min(axis=1), at T = 1, B - 1, B, B + 1 and 2000, over ties, zeros
        # of both signs and tables whose least class sum stays a zero for long stretches
        width = max(1, kernels._BLOCK // kernel.num_classes)
        rng = np.random.default_rng(kernel.num_classes)
        for rounds in sorted({1, max(1, width - 1), width, width + 1, 2000}):
            shape = (rounds, kernel.num_experts)
            ties = rng.integers(-2, 3, shape).astype(float)
            ties[rng.random(shape) < 0.3] = -0.0
            ties[rng.random(shape) < 0.2] = 0.0
            for table in (ties, rng.choice([-0.0, 0.0, 0.0, 1.0], shape)):
                got = best_prefix_losses(kernel, table), *best_competitor(kernel, table)
                with mock.patch.object(kernels, "_row_minima", lambda rows, out=None: rows.min(axis=1, out=out)):
                    want = best_prefix_losses(kernel, table), *best_competitor(kernel, table)
                assert got[0].tobytes() == want[0].tobytes(), rounds
                assert got[1] == want[1] and np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()

    def test_row_minima_equal_min_over_each_row_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for width in [*range(1, 70), 127, 128, 129, 256, 512, 1000, 4096]:
            rows = rng.choice([-2.0, -0.0, 0.0, 0.0, 1.0, np.inf], (max(2, 8192 // width), width))
            assert kernels._row_minima(rows).tobytes() == rows.min(axis=1).tobytes(), width
            out = np.empty(len(rows))
            assert kernels._row_minima(rows, out) is out and out.tobytes() == rows.min(axis=1).tobytes()

    def test_large_permutation_with_one_round_per_block(self):
        kernel = cyclic_kernel(100)
        assert kernel.num_classes > kernels._BLOCK  # each block holds one round
        rng = np.random.default_rng(5)
        table = rng.integers(-3, 4, (50, 100)) * 10.0 ** rng.choice([-150, 0, 150], (50, 1))
        twin = edge_list_twin(kernel)
        path, loss = best_competitor(kernel, table)
        assert (path, loss) == best_competitor(twin, table)
        prefix = best_prefix_losses(kernel, table)
        np.testing.assert_array_equal(prefix, best_prefix_losses(twin, table))
        assert prefix[-1] == loss


def random_dense_kernel(seed, uniform_prior):
    """A random sparse user kernel over k classes (m, j), with a uniform or a
    random prior (some starts light, some weightless)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    experts = int(rng.integers(1, k + 1))
    classes = [(i % experts, i // experts) for i in range(k)]
    mat = rng.random((k, k)) * (rng.random((k, k)) < 0.6)
    mat[np.arange(k), rng.integers(0, k, k)] += rng.random(k) + 1e-3
    mat /= mat.sum(axis=1, keepdims=True)
    init = None
    if not uniform_prior:
        pi = rng.dirichlet(np.full(k, 0.5)) * (rng.random(k) < 0.7)
        if pi.sum() == 0.0:
            pi[0] = 1.0
        init = dict(zip(classes, (pi / pi.sum()).tolist()))
    return TransitionKernel.from_dense("random", experts, classes, mat, init)


class TestDerivedBudget:
    """budget_bound reads W_T = 1 + start + (T-1) * (-log min weight) off the tables."""

    @pytest.mark.parametrize("experts", [1, 2, 3, 7, 8, 10, 49, 64, 100, 256])
    def test_builtins_keep_their_closed_forms(self, experts):
        rounds_grid = [1, 2, 3, 100, 2000, 10_000]
        for rounds in rounds_grid:
            assert fixed_kernel(experts).budget_bound(rounds) == 1.0 + math.log(experts)
            assert cyclic_kernel(experts).budget_bound(rounds) == 1.0 + 2.0 * math.log(experts)
        for w in (1e-9, 1e-3, 0.05, 0.1, 0.5, 0.9, 0.999) if experts >= 2 else ():
            kernel = switching_kernel(experts, w)
            step = max(-math.log(1.0 - w), -math.log(w / (experts - 1)))
            for rounds in rounds_grid:
                expected = 1.0 + math.log(experts) + max(rounds - 1, 0) * step
                assert kernel.budget_bound(rounds) == expected

    def test_light_start_is_charged(self):
        # initial weights 0, 0.25 and 0.75 over three classes: 0.25 < 1/3
        assert class_budget(ROTATE_WITH_INIT, [(1,), (2,), (0,)]) == 1.0 - math.log(0.25)
        assert class_budget(ROTATE_WITH_INIT, [(2,), (0,)]) == 1.0 + math.log(3)
        assert class_budget(ROTATE_WITH_INIT, [(1,)]) == 1.0
        assert ROTATE_WITH_INIT.budget_bound(5) == 1.0 - math.log(0.25)
        with pytest.raises(OutOfClassError, match="zero initial weight"):
            class_budget(ROTATE_WITH_INIT, [(0,), (1,)])

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 12))
    @settings(deadline=None, max_examples=80)
    def test_best_competitor_stays_within_the_bound(self, seed, uniform_prior, rounds):
        kernel = random_dense_kernel(seed, uniform_prior)
        table = np.random.default_rng(seed).standard_normal((rounds, kernel.num_experts))
        path, _ = best_competitor(kernel, table)
        bound = kernel.budget_bound(rounds)
        assert math.isfinite(bound) and bound >= 1.0
        assert class_budget(kernel, path) <= bound + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_auto_gamma_keeps_regret_under_the_variance_bound(self, seed):
        kernel = random_dense_kernel(seed + 100, uniform_prior=seed % 2 == 0)
        rng = np.random.default_rng(seed)
        rounds = 400
        scale = 10.0 ** rng.uniform(-3, 3, (rounds, 1))
        table = rng.standard_cauchy((rounds, kernel.num_experts)) * scale
        w_budget = kernel.budget_bound(rounds)
        agg = Aggregator(kernel, gamma_from_budget(w_budget))
        expected, big_d, big_v = np.empty(rounds), np.empty(rounds), np.empty(rounds)
        for t, losses in enumerate(table):
            agg.probabilities()
            agg.observe(losses)
            diag = agg.last_round
            expected[t], big_d[t], big_v[t] = diag.expected_loss, diag.D, diag.V
        regret = np.cumsum(expected) - best_prefix_losses(kernel, table)
        assert np.all(regret <= bound_var(w_budget, big_d, big_v))


ONE_CLASS = {(0,): [((0,), 1.0)]}


@pytest.mark.parametrize("call, error, message", [
    (lambda: TransitionKernel("k", 1, [()], {}), ConfigError, "class parameters must have at least one coordinate"),
    (lambda: TransitionKernel("k", 1, [], {}), ConfigError, "kernel needs at least one class"),
    (lambda: TransitionKernel.from_dense("k", 1, [], np.empty((0, 0))), ConfigError, "kernel needs at least one class"),
    (lambda: TransitionKernel("k", 1, [(0,)], ONE_CLASS, init_weights={(1,): 1.0}),
     ConfigError, "initial class (1,) is not in the class space"),
    (lambda: TransitionKernel("k", 1, [(0,)], ONE_CLASS, init_weights={(0,): 0.5}),
     ConfigError, "initial distribution must be nonnegative and sum to 1"),
    (lambda: fixed_kernel(2).successor_items((5,)), KeyError, "(5,) is not a class of kernel 'fixed'"),
    (lambda: class_budget(fixed_kernel(2), []), ValueError, "competitor path is empty"),
], ids=["empty-class", "no-classes", "no-dense-classes", "init-unknown", "init-sum", "successor-unknown", "empty-path"])
def test_kernel_refusals_name_the_fault(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)
