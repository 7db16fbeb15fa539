"""Competition classes as equivalence-class spaces with stochastic transitions.

A competition class is described by a finite set of equivalence classes
(tuples of small integers whose first coordinate is the current expert) and a
row-stochastic transition map between consecutive rounds.  Built-ins cover
the fixed-expert class, the cyclic moving-rate class, and a fixed-share style
switching class.  A ``TransitionKernel`` holds every table the engine and
the DPs read, its transition structure (edge list, permutation or fixed
share) among them: the structure mixes the engine's weights and runs the
dynamic-programming search for the best in-class competitor.  The module
also provides the class budget W = 1 + log(max |Omega|) - log(product of
transition weights) and its bound read off each kernel's own tables (which
chooses gamma).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import itemgetter

import numpy as np

from .core import MAX_ROUNDS, ConfigError, OutOfClassError, as_instance, as_integer, as_loss_array, as_real
from .core import as_sequence, fsum_or_inf

ClassParams = tuple[int, ...]

_ROW_TOL = 1e-12
#: switching_kernel's rule on switch_weight, as keyword arguments of ``as_real``.
SWITCH_WEIGHT_RULE = {"rule": "a real in (0, 1)", "valid": lambda w: 0.0 < w < 1.0}


def _segment_logsumexp(values: np.ndarray, starts: np.ndarray, seg: np.ndarray, out=None) -> np.ndarray:
    """Log-sum-exp of each contiguous segment; -inf where a segment is all -inf.

    The shifted values go to ``out``: a fresh array, or ``values`` itself if
    the caller owns it, which keeps large mixing steps off the allocator.
    """
    seg_max = np.maximum.reduceat(values, starts)
    # rare: an all -inf segment shifts to NaN, reported as -inf
    if seg_max.item(seg_max.argmin()) == -np.inf:
        with np.errstate(invalid="ignore"):
            shifted = np.subtract(values, seg_max[seg], out=out)
        sums = np.add.reduceat(np.exp(shifted, out=shifted), starts)
        return np.where(np.isneginf(seg_max), -np.inf, seg_max + np.log(sums))
    shifted = np.subtract(values, seg_max[seg], out=out)
    return seg_max + np.log(np.add.reduceat(np.exp(shifted, out=shifted), starts))


def _as_class(coords) -> ClassParams:
    cls = tuple(as_integer(c, "class coordinate") for c in as_sequence(coords, "a class", "integers"))
    if not cls:
        raise ConfigError("class parameters must have at least one coordinate")
    return cls


def _check_positive(class_list, src, dst, w) -> None:
    """Every weight finite and positive, read off a min and a max (NaN fails both);
    only a failed check finds the offender, the first in the arrays' order."""
    if not (w.min(initial=1.0) > 0.0 and w.max(initial=1.0) < math.inf):
        e = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))[0]
        raise ConfigError(
            f"transition weight {class_list[src[e]]} -> {class_list[dst[e]]} "
            f"must be positive, got {w[e]!r}"
        )


def _check_row_sums(class_list, w, starts, counts) -> None:
    """Each row ``w[starts[i]:starts[i] + counts[i]]`` of positive weights sums to
    within _ROW_TOL of 1 as ``math.fsum`` rounds it; a failing row is named as
    ``class_list[i]``."""
    with np.errstate(over="ignore"):
        totals = np.add.reduceat(w, starts)
    # A float sum of n positive weights errs by at most (n-1)*2^-53 of the exact
    # sum, and fsum by 2^-53 of it: only a row whose float sum s lies within
    # n*2^-52*s of the edge 1 +- _ROW_TOL may be on fsum's other side; it takes fsum.
    view = memoryview(w)  # fsum reads a memoryview twice as fast as an ndarray
    slack = np.abs(np.abs(totals - 1.0) - _ROW_TOL)
    for i in np.flatnonzero(slack < counts * 2.0**-52 * totals).tolist():
        totals[i] = math.fsum(view[starts[i]:starts[i] + counts[i]])
    unsummed = np.flatnonzero(np.abs(totals - 1.0) > _ROW_TOL)
    if len(unsummed):
        i = unsummed[0]
        total = fsum_or_inf(view[starts[i]:starts[i] + counts[i]])
        raise ConfigError(f"row for {class_list[i]} sums to {total!r}, not 1")


def _checked_edges(class_list, src, dst, weights):
    """The edges over ``class_list``, checked and in (source, destination) order:
    (source, destination, weight, first edge of each source's row)."""
    k = len(class_list)
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    raw_w = np.asarray(weights)
    if raw_w.dtype.kind not in "iuf" or raw_w.ndim != 1:  # a weight that is a sequence adds an axis
        raise ConfigError(f"transition weights must be one real number each, got {raw_w.dtype} {raw_w.shape}")
    raw_w = raw_w.astype(float, copy=False)
    for ids in (src, dst):
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= k:
            e = np.flatnonzero((ids < 0) | (ids >= k))[0]
            raise ConfigError(f"class index {ids[e]} is not in the class space 0..{k - 1}")
    _check_positive(class_list, src, dst, raw_w)

    # edge-sized temporaries are deleted as soon as they are spent: the
    # build's peak memory is the process's peak on large kernels
    key = src * k
    key += dst
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, src, dst, raw_w = key[order], src[order], dst[order], raw_w[order]
        del order
        repeat = np.flatnonzero(key[1:] == key[:-1])
        if len(repeat):
            e = repeat[0]
            raise ConfigError(
                f"class {class_list[src[e]]} lists successor {class_list[dst[e]]} more than once"
            )
    del key
    starts = np.searchsorted(src, np.arange(k))
    counts = np.diff(starts, append=len(src))
    if not counts.all():
        raise ConfigError(f"class {class_list[np.argmin(counts)]} has no successor row")
    _check_row_sums(class_list, raw_w, starts, counts)
    return src, dst, raw_w, starts


def _edge_structure(class_list, src, dst, weights) -> EdgeList | Permutation | FixedShare:
    """The structure of a user kernel's edges over ``class_list`` (sorted and distinct), checked."""
    if not class_list:
        raise ConfigError("kernel needs at least one class")
    return _structure(*_checked_edges(class_list, src, dst, weights), len(class_list))


class TransitionKernel:
    """A competition class: equivalence classes plus a stochastic transition map.

    Parameters
    ----------
    name : str
        Identifier used in configs and reports.
    num_experts : int
        Number of experts M; the first coordinate of every class must lie in
        {0..M-1}.
    classes : iterable of int tuples
        The class space Omega.
    successors : mapping class -> iterable of (class, weight)
        Sparse successor lists, one row for every class of Omega and no
        other; each row must list distinct classes with strictly positive
        weights summing to 1.  Each row is iterated once, while the kernel
        is built.
    init_weights : mapping class -> weight, optional
        Distribution over classes for the first round (the transition out of
        the virtual root); defaults to uniform.  Must sum to 1.

    The kernel holds the tables that the engine, the budgets and the DPs
    read.  ``classes`` are sorted lexicographically, which groups them by
    expert (the first coordinate), and ``init_weights`` is the first round's
    distribution; those two are public.  The rest only the library reads:
    ``_expert_of`` is each class's expert, ``_present_experts`` the experts
    that have a class, ``_expert_starts`` the first class of each and
    ``_class_seg`` each class's group.  ``_one_per_expert`` says that class c
    is expert c (the engine neither gathers nor groups), and ``_structure``
    (``EdgeList``, ``Permutation`` or ``FixedShare``) holds the transitions,
    answers for a class's row and the least weight, mixes the engine's
    weights and runs both competitor DPs.  The class ``_index``, which no
    round reads, is built on first read.  No budget is declared:
    ``budget_bound`` reads it off the tables, so every kernel, built-in or
    not, can choose gamma from it.  Kernels are immutable by convention (no
    array is made read-only) and safe to share across threads.

    ``_build`` sets the tables from a finished structure.  A user kernel's
    structure is read off three edge arrays, source and destination indices
    into the sorted class list and the raw weights, which ``_edge_structure``
    checks: this constructor fills them in one pass over the successor
    rows, the only per-edge Python work of a build, and ``from_dense`` takes
    them from ``np.nonzero``.  The built-ins hand over the structure they
    know, and each class's expert: ``fixed_kernel`` and ``cyclic_kernel`` a
    ``Permutation`` of their successor map, ``switching_kernel`` a
    ``FixedShare`` once it has checked one row of k weights (every other row
    is that row with two entries swapped).
    """

    def __init__(
        self,
        name: str,
        num_experts: int,
        classes: Iterable[ClassParams],
        successors: Mapping[ClassParams, Iterable[tuple[ClassParams, float]]],
        init_weights: Mapping[ClassParams, float] | None = None,
    ):
        num_experts = as_integer(num_experts, "num_experts", 1)
        class_list = sorted({_as_class(c) for c in as_sequence(classes, "classes", "classes")})
        index = {cls: i for i, cls in enumerate(class_list)}
        src: list[int] = []
        dst: list[int] = []
        weights: list[float] = []
        for a, row in as_instance(successors, Mapping, "successors").items():
            a = _as_class(a)
            if a not in index:
                raise ConfigError(f"successor row {a} is for a class not in the class space")
            i = index[a]
            try:
                pairs = [(b, w) for b, w in row]
            except (TypeError, ValueError) as exc:  # a row, or an entry of it, that is not a pair
                raise ConfigError(f"successor row {a} must hold (class, weight) pairs: {exc}") from exc
            for b, w in pairs:
                b = _as_class(b)
                if b not in index:
                    raise ConfigError(f"successor {b} of {a} is not in the class space")
                src.append(i)
                dst.append(index[b])
                weights.append(w)
        structure = _edge_structure(class_list, src, dst, weights)
        self._build(name, num_experts, class_list, structure, init_weights)

    def _build(self, name, num_experts, class_list, structure, init_weights=None, expert_of=None):
        """Set the tables over ``class_list`` (sorted, distinct, not empty) and its finished
        ``structure``; ``expert_of`` is each class's expert (intp), read off the classes if None."""
        self.name = str(name)
        self.num_experts = num_experts
        k = len(class_list)
        if class_list[0][0] < 0 or class_list[-1][0] >= num_experts:  # sorted: the ends are the extremes
            cls = next(c for c in class_list if not 0 <= c[0] < num_experts)
            raise ConfigError(f"class {cls} selects expert outside 0..{num_experts - 1}")
        if expert_of is None:
            expert_of = np.fromiter((cls[0] for cls in class_list), np.intp, k)

        opens = np.concatenate(([True], expert_of[1:] != expert_of[:-1]))  # where each expert's classes start
        self._expert_starts = np.flatnonzero(opens)
        self._present_experts = expert_of[self._expert_starts]
        if len(self._present_experts) < num_experts:
            warnings.warn(
                f"kernel '{self.name}' has no class for experts "
                f"{np.setdiff1d(np.arange(num_experts), self._present_experts).tolist()}; "
                "their selection probability will be structurally zero",
                stacklevel=3,  # past _build and the constructor, to the caller's line
            )
        self._class_seg = np.cumsum(opens) - 1

        if init_weights is None:
            init = np.full(k, 1.0 / k)
        else:
            init = np.zeros(k)
            index = {cls: i for i, cls in enumerate(class_list)}
            for cls, w in as_instance(init_weights, Mapping, "init_weights").items():
                cls = _as_class(cls)
                if cls not in index:
                    raise ConfigError(f"initial class {cls} is not in the class space")
                init[index[cls]] = as_real(w, f"initial weight of {cls}")
            if np.any(init < 0.0) or abs(math.fsum(init) - 1.0) > _ROW_TOL:
                raise ConfigError("initial distribution must be nonnegative and sum to 1")

        self.classes = tuple(class_list)
        self._expert_of = expert_of
        self.init_weights = init
        self._one_per_expert = k == len(self._present_experts) == num_experts
        self._structure = structure
        return self

    @classmethod
    def from_dense(
        cls,
        name: str,
        num_experts: int,
        classes: Sequence[ClassParams],
        matrix,
        init_weights: Mapping[ClassParams, float] | None = None,
    ) -> "TransitionKernel":
        """Build a kernel from a dense row-stochastic matrix (rows = sources).

        Zero entries are dropped; the sparse successor-list form is what the
        engine consumes.  No class may be listed twice.
        """
        num_experts = as_integer(num_experts, "num_experts", 1)
        class_list = [_as_class(c) for c in as_sequence(classes, "classes", "classes")]
        mat = np.asarray(matrix)
        if mat.shape != (len(class_list), len(class_list)):
            raise ConfigError(f"matrix shape {mat.shape} does not match {len(class_list)} classes")
        order = sorted(range(len(class_list)), key=class_list.__getitem__)
        class_list = [class_list[i] for i in order]
        for a, b in zip(class_list, class_list[1:]):
            if a == b:
                raise ConfigError(f"class {a} is listed more than once")
        mat = mat[np.ix_(order, order)]
        src, dst = np.nonzero(mat)
        structure = _edge_structure(class_list, src, dst, mat[src, dst])
        return cls.__new__(cls)._build(name, num_experts, class_list, structure, init_weights)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def _index(self) -> dict[ClassParams, int]:
        return {cls: i for i, cls in enumerate(self.classes)}

    def _expert_log_weights(self, log_w: np.ndarray) -> np.ndarray:
        """Log of each expert's total class weight, -inf for an expert with no class.

        With one class per expert this is ``log_w`` itself, not a copy.
        """
        if self._one_per_expert:
            return log_w
        grouped = _segment_logsumexp(log_w, self._expert_starts, self._class_seg)
        if len(grouped) == self.num_experts:
            return grouped
        out = np.full(self.num_experts, -np.inf)
        out[self._present_experts] = grouped
        return out

    def successor_items(self, coords) -> tuple[tuple[ClassParams, float], ...]:
        """Sparse successor list of one class: ((next_class, weight), ...)."""
        cls = _as_class(coords)
        if cls not in self._index:
            raise KeyError(f"{cls} is not a class of kernel '{self.name}'")
        dsts, weights = self._structure.row(self._index[cls], self.num_classes)
        return tuple((self.classes[d], w) for d, w in zip(dsts.tolist(), weights.tolist()))

    def budget_bound(self, rounds: int) -> float:
        """Bound W_T on ``class_budget`` of every in-class path of ``rounds`` rounds.

        W_T = 1 + s + max(T-1, 0) * (-log min_e w_e): no step costs more than
        the lightest edge, and s charges the lightest start as ``class_budget``
        does.  Built-ins get 1 + log M (fixed), 1 + 2 log M (cyclic) and
        1 + log M + (T-1) * max(-log(1-w), -log(w/(M-1))) (switching).
        """
        start = _start_charge(float(self.init_weights[self.init_weights > 0.0].min()), self.num_classes)
        steps = max(as_integer(rounds, "rounds", 0, MAX_ROUNDS) - 1, 0)
        return 1.0 + start + steps * -math.log(self._structure.least_weight())

    def __repr__(self) -> str:
        return (
            f"TransitionKernel(name={self.name!r}, experts={self.num_experts}, "
            f"classes={self.num_classes})"
        )


def fixed_kernel(num_experts: int) -> TransitionKernel:
    """One class per expert, each a self-loop: the classic fixed-expert class."""
    num_experts = as_integer(num_experts, "num_experts", 1)
    ids = np.arange(num_experts)
    loops = Permutation.of(ids, np.ones(num_experts))
    return TransitionKernel.__new__(TransitionKernel)._build(
        "fixed", num_experts, list(zip(range(num_experts))), loops, expert_of=ids
    )


def cyclic_kernel(num_experts: int) -> TransitionKernel:
    """Classes (m, sigma) that advance the expert by sigma (mod M) every round.

    The successor map is a permutation of the M^2 classes, so the class count
    stays fixed and each class has exactly one predecessor.
    """
    num_experts = as_integer(num_experts, "num_experts", 1)
    # class (m, s) sits at index m*M + s of the sorted class list
    expert, sigma = np.divmod(np.arange(num_experts * num_experts), num_experts)
    succ = (expert + sigma) % num_experts * num_experts + sigma
    classes = list(product(range(num_experts), repeat=2))
    return TransitionKernel.__new__(TransitionKernel)._build(
        "cyclic", num_experts, classes, Permutation.of(succ, np.ones(len(succ))), expert_of=expert
    )


def switching_kernel(num_experts: int, switch_weight: float) -> TransitionKernel:
    """Fixed-share style class: stay with weight 1 - w, spread w over the rest.

    The worst in-class competitor over T rounds pays the larger of the two
    per-step log penalties, -log(1 - w) and -log(w / (M-1)), at every step,
    which is what ``budget_bound`` charges.
    """
    num_experts = as_integer(num_experts, "num_experts", 2)
    w = as_real(switch_weight, "switch_weight", **SWITCH_WEIGHT_RULE)
    # np.arange refuses an M past any array size (ValueError) before w / (M - 1) can overflow
    ids, classes = np.arange(num_experts), list(zip(range(num_experts)))
    stay, off = 1.0 - w, w / (num_experts - 1)
    # row m is row 0 with entries 0 and m swapped, so row 0's checks stand for every row
    row = np.full(num_experts, off)
    row[0] = stay
    _check_positive(classes, np.zeros(num_experts, dtype=np.intp), ids, row)
    _check_row_sums(classes, row, np.zeros(1, dtype=np.intp), np.array([num_experts]))
    return TransitionKernel.__new__(TransitionKernel)._build(
        "switching", num_experts, classes, FixedShare(stay, off), expert_of=ids
    )


def _start_charge(init_weight: float, num_classes: int) -> float:
    """log |Omega|, or -log(init_weight) below uniform (strictly: 1.0/|Omega| costs log |Omega|)."""
    if init_weight < 1.0 / num_classes:
        return -math.log(init_weight)
    return math.log(num_classes)


def class_budget(kernel: TransitionKernel, competitor: Sequence[ClassParams]) -> float:
    """Exact budget W = 1 + log(max |Omega|) - sum of log transition weights.

    The competitor must be a valid in-class path: its first class must carry
    positive initial weight and every step must use a positive-weight
    transition.  A start of initial weight pi < 1/|Omega| is charged -log pi
    in place of log |Omega|.  Only the virtual root precedes round 1, so a
    one-round path has budget 1 whatever its start.
    """
    kernel = as_instance(kernel, TransitionKernel, "kernel")
    path = [_as_class(c) for c in as_sequence(competitor, "competitor", "classes")]
    if not path:
        raise ValueError("competitor path is empty")
    first = path[0]
    if first not in kernel._index:
        raise OutOfClassError(f"{first} is not a class of kernel '{kernel.name}'")
    a = kernel._index[first]
    init_weight = float(kernel.init_weights[a])
    if init_weight <= 0.0:
        raise OutOfClassError(f"{first} has zero initial weight")
    if len(path) == 1:
        return 1.0
    log_tau = 0.0
    for t, (prev, cls) in enumerate(zip(path, path[1:]), start=1):
        # each row lists its destinations in sorted order
        dsts, weights = kernel._structure.row(a, kernel.num_classes)
        b = kernel._index.get(cls, -1)
        e = np.searchsorted(dsts, b)
        if e == len(dsts) or dsts[e] != b:
            raise OutOfClassError(f"transition {prev} -> {cls} at step {t} has zero weight")
        log_tau += math.log(weights[e])
        a = b
    return 1.0 + _start_charge(init_weight, kernel.num_classes) - log_tau


# (round, class) entries in one block of the permutation and fixed-share DPs,
# which hold at least one round: their temporaries, a few arrays of this size
# (about 0.3 MB in all), do not grow with the number of rounds.
_BLOCK = 8192


def _best_start(kernel: TransitionKernel, suffix: np.ndarray) -> tuple[int, float]:
    """First minimum of the round-1 suffix values over the classes a path may start in."""
    masked = np.where(kernel.init_weights > 0.0, suffix, np.inf)
    start = int(np.argmin(masked))  # first minimum = lex-smallest class
    return start, float(masked[start])


def _structure(src, dst, w, starts, k) -> EdgeList | Permutation | FixedShare:
    """The transition structure of checked edges, read off them; a fixed share keeps none."""
    # k edges, one per row: a permutation if every class is a destination
    if len(src) == k and np.bincount(dst, minlength=k).all():
        return Permutation.of(dst, w)
    # with rows in (src, dst) order, k^2 edges are all present iff every
    # row lists the destinations 0..k-1
    if k >= 2 and len(src) == k * k and (dst.reshape(k, k) == np.arange(k)).all():
        stay, off = w[0], w[1]
        # the k^2 - k entries between diagonal ones are the off-diagonal ones
        if (w[::k + 1] == stay).all() and (w[1:].reshape(k - 1, k + 1)[:, :k] == off).all():
            return FixedShare(float(stay), float(off))
    return EdgeList.of(src, dst, w, starts, k)


@dataclass(frozen=True, eq=False)
class EdgeList:
    """Any kernel: the reference the other two structures are tested against.

    The edges as the build checked them, in (source, destination) order:
    each edge's ``row_src``, ``row_dst`` and raw weight ``row_w``, and the
    first edge of each source's row ``row_starts``.  A class's row and the
    path DP read these; the path DP walks them round by round, keeping one
    back-pointer per class and round.  Mixing and the prefix DP read the
    edges in (destination, source) order: each edge's source ``src`` and log
    weight ``logw``, the destinations that have an edge ``dst_ids``, the
    first edge of each ``starts``, and each edge's rank among them ``seg``.
    """

    row_src: np.ndarray
    row_dst: np.ndarray
    row_w: np.ndarray
    row_starts: np.ndarray
    src: np.ndarray
    logw: np.ndarray
    starts: np.ndarray
    dst_ids: np.ndarray
    seg: np.ndarray

    @classmethod
    def of(cls, src, dst, w, row_starts, k) -> EdgeList:
        """From edges in (source, destination) order: a stable sort by destination."""
        order = np.argsort(dst, kind="stable")
        counts = np.bincount(dst, minlength=k)
        dst_ids = np.flatnonzero(counts)
        starts = (np.cumsum(counts) - counts)[dst_ids]
        seg = np.repeat(np.arange(len(dst_ids)), counts[dst_ids])
        return cls(src, dst, w, row_starts, src[order], np.log(w[order]), starts, dst_ids, seg)

    def row(self, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Destinations of class ``i``, in order, and their weights."""
        lo, hi = np.searchsorted(self.row_src, [i, i + 1])
        return self.row_dst[lo:hi], self.row_w[lo:hi]

    def least_weight(self) -> float:
        return float(self.row_w.min())

    def mix(self, log_z: np.ndarray, ratio: float) -> np.ndarray:
        """log sum_c T(c' | c) * z[c] ** ratio for every class c': a grouped log-sum-exp."""
        contrib = ratio * log_z[self.src] + self.logw
        new_lw = np.full(len(log_z), -np.inf)
        new_lw[self.dst_ids] = _segment_logsumexp(contrib, self.starts, self.seg, contrib)
        return new_lw

    def path_dp(self, table: np.ndarray, kernel: TransitionKernel) -> tuple[list[int], float]:
        rounds = len(table)
        nnz = len(self.row_dst)
        back = np.empty((max(rounds - 1, 0), kernel.num_classes), dtype=np.intp)
        edge_pos = np.arange(nnz)
        suffix = table[rounds - 1][kernel._expert_of]
        for t in range(rounds - 2, -1, -1):
            cand = suffix[self.row_dst]
            seg_min = np.minimum.reduceat(cand, self.row_starts)
            # first minimal edge in each segment = lex-smallest successor
            marked = np.where(cand == seg_min[self.row_src], edge_pos, nnz)
            back[t] = self.row_dst[np.minimum.reduceat(marked, self.row_starts)]
            suffix = table[t][kernel._expert_of] + seg_min
        start, best_loss = _best_start(kernel, suffix)
        path = [start]
        for t in range(rounds - 1):
            path.append(int(back[t][path[-1]]))
        return path, best_loss

    def prefix_dp(self, table: np.ndarray, kernel: TransitionKernel) -> np.ndarray:
        dp = np.where(kernel.init_weights > 0.0, table[0][kernel._expert_of], np.inf)
        out = np.empty(len(table))
        out[0] = dp.min()
        for t in range(1, len(table)):
            carried = np.full(kernel.num_classes, np.inf)
            carried[self.dst_ids] = np.minimum.reduceat(dp[self.src], self.starts)
            dp = carried + table[t][kernel._expert_of]
            out[t] = dp.min()
        return out


def _orbit_rows(succ: np.ndarray) -> np.ndarray:
    """``orbit[j, c]`` = succ^j(c) for B = max(1, _BLOCK // k) rounds, in about log2 B gathers."""
    k = len(succ)
    width = max(1, _BLOCK // k)
    orbit = np.empty((width, k), dtype=np.intp)
    orbit[0] = np.arange(k)
    filled = 1
    while filled < width:
        n = min(filled, width - filled)
        # succ^(filled + j)(c) = succ^j(succ^filled(c))
        orbit[filled:filled + n] = orbit[:n, succ[orbit[filled - 1]]]
        filled += n
    return orbit


def _running_sum(rows: np.ndarray) -> None:
    """Sum down the rows in place, each entry fl(entry above + entry), strictly in order.

    ``np.add.accumulate`` costs about the same per step whatever it adds, so
    an even row width is accumulated as complex numbers of two classes each:
    a complex addition is the two IEEE additions of its parts, the same bits
    at half the steps.  Rows of 256 such numbers or more (512 classes paired,
    257 unpaired) add row by row, one vectorised addition a row, which
    measured faster than the accumulate there at any number of rows.
    """
    if rows.shape[1] % 2 == 0:
        rows = rows.view(np.complex128)  # rows' last axis is contiguous: the view pairs neighbours
    if rows.shape[1] >= 256:
        for j in range(1, len(rows)):
            np.add(rows[j - 1], rows[j], out=rows[j])
    else:
        np.add.accumulate(rows, axis=0, out=rows)


@dataclass(eq=False)
class Permutation:
    """Every class has one successor and no two share it: the fixed and cyclic classes.

    Each class has the one successor ``succ``, reached with weight ``w``.
    Mixing: each class has the one predecessor ``pred``, so the log-sum-exp
    of its one edge is the edge term itself, ratio*log z[pred] + logw, the
    edge list's result bit for bit in O(k); ``unit`` kernels skip the + 0.0.

    DPs: a path is fixed by its first class, so a class's DP value is a
    running sum of its expert's losses along its orbit.  The rounds are cut
    into blocks of B rounds by k classes, B*k about ``_BLOCK`` (at least one
    round); ``orbit[j, c]`` = succ^j(c) is built once, by the first DP call,
    and each block's losses are one ``take`` from the flattened loss table.
    The prefix DP first adds to a block's first row the carry of the row
    whose block ended one round before, sums it down its rows with
    ``_running_sum`` (strictly sequential, the loop's bits; two classes per
    addition when k is even), then takes each round's least over the
    classes with ``_row_minima``, one ``reduceat`` a block.  The path DP
    runs the blocks last first, carrying the later block's first row at
    succ^B, and needs only each block's column sums: one ``np.add.reduce``
    of the reversed rows, which numpy adds a row at a time across the
    classes, the loop's order.  It starts from -0.0, the exact identity, as
    the default +0.0 would turn a column of -0.0 into +0.0; one class keeps
    ``_running_sum``, as numpy sums a lone column pairwise.  The path is
    read off ``orbit``: no back-pointers.
    """

    succ: np.ndarray
    w: np.ndarray
    pred: np.ndarray
    logw: np.ndarray
    orbit: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.unit = not np.count_nonzero(self.logw)  # every weight 1 (fixed, cyclic): log weights 0

    @classmethod
    def of(cls, succ, w) -> Permutation:
        """From one edge per source, in source order: ``succ`` is the successor map."""
        pred = np.empty_like(succ)
        pred[succ] = np.arange(len(succ))
        return cls(succ, w, pred, np.log(w[pred]))

    def row(self, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        return self.succ[i:i + 1], self.w[i:i + 1]

    def least_weight(self) -> float:
        return float(self.w.min())

    def mix(self, log_z: np.ndarray, ratio: float) -> np.ndarray:
        new_lw = log_z[self.pred]
        new_lw *= ratio
        # fl(ratio*x) + 0.0 is fl(ratio*x) save where that is -0.0 (the product of a subnormal
        # x underflows): the skip moves only a zero's sign, alike to exp, max and argmax
        return new_lw if self.unit else np.add(new_lw, self.logw, out=new_lw)

    def _block(self, kernel: TransitionKernel, rounds: int):
        """One block of B rounds, the first rows of ``orbit``: (orbit, flat, jump).

        ``flat[j, c]`` indexes the loss of the expert of class ``orbit[j, c]`` in
        a block of the flattened loss table; ``jump`` is succ^B.  A concurrent
        first call only computes equal orbits twice.
        """
        width = max(1, min(rounds, _BLOCK // kernel.num_classes))
        if self.orbit is None or len(self.orbit) < width:  # first call, or _BLOCK grew since
            self.orbit = _orbit_rows(self.succ)
        orbit = self.orbit[:width]
        flat = kernel._expert_of[orbit]
        flat += np.arange(0, width * kernel.num_experts, kernel.num_experts)[:, None]
        return orbit, flat, self.succ[orbit[-1]]

    def path_dp(self, table: np.ndarray, kernel: TransitionKernel) -> tuple[list[int], float]:
        rounds = len(table)
        orbit, flat, jump = self._block(kernel, rounds)
        width = len(orbit)
        # -0.0 is the exact identity of addition, the sign of a zero included
        carry = np.full(kernel.num_classes, -0.0)
        for lo in range((rounds - 1) // width * width, -1, -width):
            # row j, column c: the loss of the class j steps on from c at round lo
            block = table[lo:lo + width].ravel().take(flat[:rounds - lo])
            block[-1] += carry
            if kernel.num_classes == 1:  # numpy sums a one-wide column pairwise
                _running_sum(block[::-1])
                first = block[0]
            else:  # one row at a time, across the classes; +0.0 would unsign a -0.0 column
                first = np.add.reduce(block[::-1], axis=0, initial=-0.0)
            # the class after a row's last round is succ^B of its first
            carry = first.take(jump)
        start, best_loss = _best_start(kernel, first)
        heads = [start]  # the path's class at the first round of each block
        for _ in range((rounds - 1) // width):
            heads.append(int(jump[heads[-1]]))
        path = orbit[:, heads].T.ravel()[:rounds]
        return path.tolist(), best_loss

    def prefix_dp(self, table: np.ndarray, kernel: TransitionKernel) -> np.ndarray:
        rounds = len(table)
        _, flat, jump = self._block(kernel, rounds)
        width = len(flat)
        before = np.empty_like(jump)
        before[jump] = np.arange(len(jump))  # the class whose row ends one round before c's
        # -0.0 leaves a start's loss as it is; inf bars the classes no path starts in
        carry = np.where(kernel.init_weights > 0.0, -0.0, np.inf)
        out = np.empty(rounds)
        for lo in range(0, rounds, width):
            block = table[lo:lo + width].ravel().take(flat[:rounds - lo])
            block[0] += carry
            _running_sum(block)
            _row_minima(block, out[lo:lo + len(block)])
            carry = block[-1].take(before)
        return out


def _row_minima(rows: np.ndarray, out=None) -> np.ndarray:
    """``rows.min(axis=1)`` bit for bit, a zero's sign included (``bound_report``'s fold is not), as
    one ``reduceat`` over the raveled rows: half the time on rows of 8 to 512 entries."""
    return np.minimum.reduceat(rows.ravel(), np.arange(0, rows.size, rows.shape[1]), out=out)


def _round_minima(table: np.ndarray, kernel: TransitionKernel) -> np.ndarray:
    """Each round's least loss over the classes' experts, in blocks unless every expert has one."""
    cols = kernel._present_experts
    if len(cols) == table.shape[1]:
        return _row_minima(table)
    width = max(1, _BLOCK // len(cols))
    return np.concatenate([_row_minima(table[lo:lo + width, cols]) for lo in range(0, len(table), width)])


@dataclass(frozen=True)
class FixedShare:
    """All k^2 edges (k >= 2), ``stay`` on the diagonal and ``off`` off it: the switching class.

    It holds no arrays: row i, its k weights, and the least weight are
    answered in closed form, with the floats the edge arrays held.

    Mixing: with y = ratio*log z and e = exp(y - max y),
    w'[j] = max y + log(stay*e[j] + off*sum_{i != j} e[i]), in O(k) where the
    edge list takes O(k^2).  The sum over i != j is an exclusive prefix plus
    an exclusive suffix sum, never the total minus e[j], which cancels when
    stay << off; nor a diagonal-plus-rank-one form, whose coefficient
    stay - off may be negative.  It agrees with the edge list within rounding.

    DPs: every class succeeds every class, and rounding is monotone, so
    min_c fl(x_c + a) = fl(min_c x_c + a).  The rounds' minima are one
    ``reduceat`` (``_round_minima``; a block at a time when some expert has
    no class).  The prefix DP is one ``np.add.accumulate`` of them; the path
    DP's least suffixes are a reverse accumulate of the same minima, and the
    back-pointer of round t is the first minimum of fl(x_t+1 + least suffix
    from t+2), one ``argmin`` per block, the least suffixes added straight
    onto the loss rows when each expert has one class.  No destination
    tables are built.
    """

    stay: float
    off: float

    def row(self, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        w = np.full(k, self.off)
        w[i] = self.stay
        return np.arange(k), w

    def least_weight(self) -> float:
        return min(self.stay, self.off)

    def mix(self, log_z: np.ndarray, ratio: float) -> np.ndarray:
        e = ratio * log_z  # y = ratio*log z, then e, then the result: one k-sized buffer
        # finite: the log weights peak at 0, the exponent term is finite and ratio is in (0, 1]
        top = e.item(e.argmax())
        np.exp(np.subtract(e, top, out=e), out=e)
        others = np.zeros(len(e))
        np.add.accumulate(e[:-1], out=others[1:])
        others[:-1] += np.add.accumulate(e[:0:-1])[::-1]
        others *= self.off
        e *= self.stay
        e += others
        return np.add(np.log(e, out=e), top, out=e)

    def path_dp(self, table: np.ndarray, kernel: TransitionKernel) -> tuple[list[int], float]:
        rounds = len(table)
        # best[t]: the least suffix value from round t on, fl(minima[t] + best[t+1]); best[T] = -0.0
        best = np.add.accumulate(np.append(_round_minima(table, kernel), -0.0)[::-1])[::-1]
        firsts = np.empty(rounds, dtype=np.intp)
        width = max(1, _BLOCK // kernel.num_classes)
        for lo in range(0, rounds, width):
            later = best[lo + 1:lo + width + 1, None]
            if kernel._one_per_expert:  # _expert_of is the identity: no gather
                suffix = np.add(table[lo:lo + width], later)
            else:
                suffix = table[lo:lo + width, kernel._expert_of]
                suffix += later
            suffix.argmin(axis=1, out=firsts[lo:lo + len(suffix)])
        start, best_loss = _best_start(kernel, table[0][kernel._expert_of] + best[1])
        return [start] + firsts[1:].tolist(), best_loss

    def prefix_dp(self, table: np.ndarray, kernel: TransitionKernel) -> np.ndarray:
        minima = _round_minima(table, kernel)
        minima[0] = np.where(kernel.init_weights > 0.0, table[0][kernel._expert_of], np.inf).min()
        return np.add.accumulate(minima)


def best_competitor(
    kernel: TransitionKernel, losses
) -> tuple[tuple[ClassParams, ...], float]:
    """Minimum-cumulative-loss in-class path, by dynamic programming.

    A path's cost is the sum over rounds of the loss of the expert its class
    selects, and it must start in a class of positive initial weight.  Ties
    are broken toward the lexicographically smallest class sequence.
    Returns (path, cumulative loss).  The kernel's transition structure runs
    the backward recursion suffix_t(c) = x_t(c) + min over successors b of
    suffix_t+1(b), where x_t(c) is the loss of c's expert at round t; on a
    permutation, a block of rounds is one column sum per class (see
    ``Permutation``).  Every structure gives the edge-list DP's path and
    bits, save the sign of a zero loss, which numpy's ``min`` does not fix.
    One ``itemgetter`` reads the path's classes.
    """
    kernel = as_instance(kernel, TransitionKernel, "kernel")
    table = as_loss_array(np.atleast_2d(losses), kernel.num_experts)[0]
    path, best_loss = kernel._structure.path_dp(table, kernel)
    # itemgetter reads 2,000 classes in 22 µs, a generator in 49 and map(classes.__getitem__) in
    # 84, but of one index it returns the item, not a tuple
    if len(path) == 1:
        return (kernel.classes[path[0]],), best_loss
    return itemgetter(*path)(kernel.classes), best_loss


def best_prefix_losses(kernel: TransitionKernel, losses) -> np.ndarray:
    """Minimum in-class cumulative loss for every prefix of the loss table.

    Entry t-1 is the best competitor loss over rounds 1..t, by the forward
    recursion of the kernel's transition structure; the final entry matches
    ``best_competitor``'s cumulative loss.  Every structure gives the
    edge-list DP's values, save the sign of a zero minimum.
    """
    kernel = as_instance(kernel, TransitionKernel, "kernel")
    table = as_loss_array(np.atleast_2d(losses), kernel.num_experts)[0]
    return kernel._structure.prefix_dp(table, kernel)
