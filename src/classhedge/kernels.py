"""Competition classes as equivalence-class spaces with stochastic transitions.

A competition class is described by a finite set of equivalence classes
(tuples of small integers whose first coordinate is the current expert) and a
row-stochastic transition map between consecutive rounds.  Built-ins cover
the fixed-expert class, the cyclic moving-rate class, and a fixed-share style
switching class.  The module also provides the class budget
W = 1 + log(max |Omega|) - log(product of transition weights), its bound
read off each kernel's own tables (which chooses gamma), and the
dynamic-programming search for the best in-class competitor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ConfigError, OutOfClassError

ClassParams = tuple[int, ...]

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class KernelTables:
    """Precomputed index structures of a kernel.

    Classes are sorted lexicographically, which groups them by expert since
    the expert index is the first coordinate.  Edge arrays come in two
    orders: sorted by destination (for the engine's mixing step and the
    prefix DP) and sorted by source (for the path DP and successor lists).

    Two transition structures are read off the edges, not declared:
    ``permutation`` (every class has exactly one successor and no two share
    it, as in the fixed and cyclic classes) and ``share``, the (stay, off)
    weights of a fixed-share map (k >= 2, all k^2 edges, one weight on the
    diagonal and one off it, as in the switching class).  The engine's mixing
    step takes a closed form for each, the DPs one for fixed share; every
    other kernel uses the edge lists.
    """

    classes: tuple[ClassParams, ...]
    index: dict[ClassParams, int] = field(repr=False)
    expert_of: np.ndarray = field(repr=False)
    present_experts: np.ndarray = field(repr=False)
    expert_starts: np.ndarray = field(repr=False)
    class_seg: np.ndarray = field(repr=False)
    # edges sorted by (dst, src)
    mix_src: np.ndarray = field(repr=False)
    mix_logw: np.ndarray = field(repr=False)
    mix_starts: np.ndarray = field(repr=False)
    mix_dst_ids: np.ndarray = field(repr=False)
    mix_seg: np.ndarray = field(repr=False)
    # edges sorted by (src, dst), with the raw transition weights
    adj_src: np.ndarray = field(repr=False)
    adj_dst: np.ndarray = field(repr=False)
    adj_w: np.ndarray = field(repr=False)
    adj_starts: np.ndarray = field(repr=False)
    init_weights: np.ndarray = field(repr=False)
    permutation: bool
    share: tuple[float, float] | None

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _as_class(coords) -> ClassParams:
    cls = tuple(int(c) for c in coords)
    if not cls:
        raise ConfigError("class parameters must have at least one coordinate")
    return cls


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
        weights summing to 1.  Each row is iterated once, while the tables
        are built.
    init_weights : mapping class -> weight, optional
        Distribution over classes for the first round (the transition out of
        the virtual root); defaults to uniform.  Must sum to 1.

    Kernels are immutable after construction and safe to share across
    threads.  ``tables`` holds the index structures the engine and the DPs
    read.  No budget is declared: ``budget_bound`` reads it off the tables,
    so every kernel, built-in or not, can choose gamma from it.

    The tables are built from three edge arrays: source and destination
    indices into the sorted class list, and the raw weights.  This
    constructor fills them in one pass over the successor rows, the only
    per-edge Python work of a build; ``from_dense`` and the built-in classes
    make them with numpy.  One builder then checks them with numpy: every
    index names a class, every weight is finite and positive, every class
    has a row, no (source, destination) pair repeats, and every row sums to
    within 1e-12 of 1, exactly rounded (``math.fsum`` over the row's slice
    when it has more than one edge).  One stable sort on
    source*k + destination puts the edges in (source, destination) order;
    it is skipped when they already are.
    """

    def __init__(
        self,
        name: str,
        num_experts: int,
        classes: Iterable[ClassParams],
        successors: Mapping[ClassParams, Iterable[tuple[ClassParams, float]]],
        init_weights: Mapping[ClassParams, float] | None = None,
    ):
        self._setup(name, num_experts)
        class_list = sorted({_as_class(c) for c in classes})
        index = {cls: i for i, cls in enumerate(class_list)}
        src: list[int] = []
        dst: list[int] = []
        weights: list[float] = []
        for a, row in successors.items():
            a = _as_class(a)
            if a not in index:
                raise ConfigError(f"successor row {a} is for a class not in the class space")
            i = index[a]
            for b, w in row:
                b = _as_class(b)
                if b not in index:
                    raise ConfigError(f"successor {b} of {a} is not in the class space")
                src.append(i)
                dst.append(index[b])
                weights.append(float(w))
        self.tables = self._build_tables(class_list, src, dst, weights, init_weights)

    @classmethod
    def _from_edges(
        cls, name, num_experts, class_list, src, dst, weights, init_weights=None
    ) -> "TransitionKernel":
        """Kernel from edge arrays over ``class_list``, which must be sorted and distinct."""
        kernel = cls.__new__(cls)
        kernel._setup(name, num_experts)
        # one frame deeper than __init__, so warnings skip one more to reach the caller
        kernel.tables = kernel._build_tables(class_list, src, dst, weights, init_weights, 4)
        return kernel

    def _setup(self, name, num_experts) -> None:
        if num_experts < 1:
            raise ConfigError(f"num_experts must be >= 1, got {num_experts}")
        self.name = str(name)
        self.num_experts = int(num_experts)

    def _build_tables(
        self, class_list, src, dst, weights, init_weights, stacklevel=3
    ) -> KernelTables:
        if not class_list:
            raise ConfigError("kernel needs at least one class")
        k = len(class_list)
        firsts = [cls[0] for cls in class_list]
        if min(firsts) < 0 or max(firsts) >= self.num_experts:
            cls = next(c for c in class_list if not 0 <= c[0] < self.num_experts)
            raise ConfigError(f"class {cls} selects expert outside 0..{self.num_experts - 1}")
        index = {cls: i for i, cls in enumerate(class_list)}

        expert_of = np.array(firsts, dtype=np.intp)
        has_class = np.zeros(self.num_experts, dtype=bool)
        has_class[expert_of] = True
        if not has_class.all():
            warnings.warn(
                f"kernel '{self.name}' has no class for experts "
                f"{np.flatnonzero(~has_class).tolist()}; "
                "their selection probability will be structurally zero",
                stacklevel=stacklevel,
            )
        present_experts, expert_starts = np.unique(expert_of, return_index=True)
        class_seg = np.repeat(
            np.arange(len(present_experts)), np.diff(np.append(expert_starts, k))
        )

        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        raw_w = np.asarray(weights, dtype=float)
        for ids in (src, dst):
            outside = np.flatnonzero((ids < 0) | (ids >= k))
            if len(outside):
                raise ConfigError(f"class index {ids[outside[0]]} is not in the class space 0..{k - 1}")
        bad = np.flatnonzero(~(np.isfinite(raw_w) & (raw_w > 0.0)))
        if len(bad):
            e = bad[0]
            raise ConfigError(
                f"transition weight {class_list[src[e]]} -> {class_list[dst[e]]} "
                f"must be positive, got {raw_w[e]!r}"
            )

        # edge-sized temporaries are deleted as soon as they are spent: the
        # build's peak memory is the process's peak on large kernels
        key = src * k + dst
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
        # edges are in (src, dst) order with no repeated pair
        counts = np.bincount(src, minlength=k)
        if not counts.all():
            raise ConfigError(f"class {class_list[np.argmin(counts)]} has no successor row")
        adj_starts = np.searchsorted(src, np.arange(k))
        # a one-edge row's sum is its weight, exactly; longer rows take fsum
        totals = np.add.reduceat(raw_w, adj_starts)
        multi = np.flatnonzero(counts > 1)
        view = memoryview(raw_w)  # fsum reads a memoryview twice as fast as an ndarray
        for i, lo, n in zip(multi.tolist(), adj_starts[multi].tolist(), counts[multi].tolist()):
            totals[i] = math.fsum(view[lo:lo + n])
        unsummed = np.flatnonzero(np.abs(totals - 1.0) > _ROW_TOL)
        if len(unsummed):
            i = unsummed[0]
            raise ConfigError(f"row for {class_list[i]} sums to {float(totals[i])!r}, not 1")

        # a stable sort by destination of (src, dst)-ordered edges gives (dst, src) order
        order = np.argsort(dst, kind="stable")
        mix_src, mix_dst = src[order], dst[order]
        mix_logw = np.log(raw_w[order])
        del order
        mix_dst_ids, mix_starts = np.unique(mix_dst, return_index=True)
        del mix_dst
        mix_seg = np.repeat(
            np.arange(len(mix_dst_ids)), np.diff(np.append(mix_starts, len(src)))
        )

        permutation = len(src) == k and len(mix_dst_ids) == k
        share = None
        # with rows in (src, dst) order, k^2 edges are all present iff every
        # row lists the destinations 0..k-1
        if k >= 2 and len(src) == k * k and (dst.reshape(k, k) == np.arange(k)).all():
            w2 = raw_w.reshape(k, k)
            stay, off = w2[0, 0], w2[0, 1]
            if (np.diagonal(w2) == stay).all() and (w2[~np.eye(k, dtype=bool)] == off).all():
                share = (float(stay), float(off))

        if init_weights is None:
            init = np.full(k, 1.0 / k)
        else:
            init = np.zeros(k)
            for cls, w in init_weights.items():
                cls = _as_class(cls)
                if cls not in index:
                    raise ConfigError(f"initial class {cls} is not in the class space")
                init[index[cls]] = float(w)
            if np.any(init < 0.0) or abs(math.fsum(init) - 1.0) > _ROW_TOL:
                raise ConfigError("initial distribution must be nonnegative and sum to 1")

        return KernelTables(
            classes=tuple(class_list),
            index=index,
            expert_of=expert_of,
            present_experts=present_experts,
            expert_starts=expert_starts,
            class_seg=class_seg,
            mix_src=mix_src,
            mix_logw=mix_logw,
            mix_starts=mix_starts,
            mix_dst_ids=mix_dst_ids,
            mix_seg=mix_seg,
            adj_src=src,
            adj_dst=dst,
            adj_w=raw_w,
            adj_starts=adj_starts,
            init_weights=init,
            permutation=permutation,
            share=share,
        )

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
        class_list = [_as_class(c) for c in classes]
        mat = np.asarray(matrix, dtype=float)
        if mat.shape != (len(class_list), len(class_list)):
            raise ConfigError(f"matrix shape {mat.shape} does not match {len(class_list)} classes")
        order = sorted(range(len(class_list)), key=class_list.__getitem__)
        class_list = [class_list[i] for i in order]
        for a, b in zip(class_list, class_list[1:]):
            if a == b:
                raise ConfigError(f"class {a} is listed more than once")
        mat = mat[np.ix_(order, order)]
        src, dst = np.nonzero(mat)
        return cls._from_edges(name, num_experts, class_list, src, dst, mat[src, dst], init_weights)

    def class_list(self) -> tuple[ClassParams, ...]:
        return self.tables.classes

    def successor_items(self, coords) -> tuple[tuple[ClassParams, float], ...]:
        """Sparse successor list of one class: ((next_class, weight), ...)."""
        tb = self.tables
        cls = _as_class(coords)
        if cls not in tb.index:
            raise KeyError(f"{cls} is not a class of kernel '{self.name}'")
        lo, hi = np.searchsorted(tb.adj_src, [tb.index[cls], tb.index[cls] + 1])
        dsts, weights = tb.adj_dst[lo:hi].tolist(), tb.adj_w[lo:hi].tolist()
        return tuple((tb.classes[d], w) for d, w in zip(dsts, weights))

    def initial_weights(self) -> np.ndarray:
        return self.tables.init_weights.copy()

    def budget_bound(self, rounds: int) -> float:
        """Bound W_T on ``class_budget`` of every in-class path of ``rounds`` rounds.

        W_T = 1 + s + max(T-1, 0) * (-log min_e w_e): no step costs more than
        the lightest edge, and s charges the lightest start as ``class_budget``
        does.  Built-ins get 1 + log M (fixed), 1 + 2 log M (cyclic) and
        1 + log M + (T-1) * max(-log(1-w), -log(w/(M-1))) (switching).
        """
        tb = self.tables
        start = _start_charge(float(tb.init_weights[tb.init_weights > 0.0].min()), tb.num_classes)
        return 1.0 + start + max(int(rounds) - 1, 0) * -math.log(float(tb.adj_w.min()))

    def __repr__(self) -> str:
        return (
            f"TransitionKernel(name={self.name!r}, experts={self.num_experts}, "
            f"classes={self.tables.num_classes})"
        )


def fixed_kernel(num_experts: int) -> TransitionKernel:
    """One class per expert, each a self-loop: the classic fixed-expert class."""
    ids = np.arange(num_experts)
    return TransitionKernel._from_edges(
        "fixed",
        num_experts,
        [(m,) for m in range(num_experts)],
        ids,
        ids,
        np.ones(num_experts),
    )


def cyclic_kernel(num_experts: int) -> TransitionKernel:
    """Classes (m, sigma) that advance the expert by sigma (mod M) every round.

    The successor map is a permutation of the M^2 classes, so the class count
    stays fixed and each class has exactly one predecessor.
    """
    m_range = range(num_experts)
    # class (m, s) sits at index m*M + s of the sorted class list
    ids = np.arange(num_experts * num_experts)
    expert, sigma = np.divmod(ids, num_experts)
    return TransitionKernel._from_edges(
        "cyclic",
        num_experts,
        [(m, s) for m in m_range for s in m_range],
        ids,
        (expert + sigma) % num_experts * num_experts + sigma,
        np.ones(len(ids)),
    )


def switching_kernel(num_experts: int, switch_weight: float) -> TransitionKernel:
    """Fixed-share style class: stay with weight 1 - w, spread w over the rest.

    The worst in-class competitor over T rounds pays the larger of the two
    per-step log penalties, -log(1 - w) and -log(w / (M-1)), at every step,
    which is what ``budget_bound`` charges.
    """
    if num_experts < 2:
        raise ConfigError(f"switching kernel needs at least 2 experts, got {num_experts}")
    w = float(switch_weight)
    if not (0.0 < w < 1.0 and math.isfinite(w)):
        raise ConfigError(f"switch_weight must lie in (0, 1), got {switch_weight!r}")
    stay, off = 1.0 - w, w / (num_experts - 1)
    ids = np.arange(num_experts)
    weights = np.full(num_experts * num_experts, off)
    weights[:: num_experts + 1] = stay  # the diagonal of the row-major M x M matrix
    return TransitionKernel._from_edges(
        "switching",
        num_experts,
        [(m,) for m in range(num_experts)],
        np.repeat(ids, num_experts),
        np.tile(ids, num_experts),
        weights,
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
    path = [_as_class(c) for c in competitor]
    if not path:
        raise ValueError("competitor path is empty")
    tb = kernel.tables
    first = path[0]
    if first not in tb.index:
        raise OutOfClassError(f"{first} is not a class of kernel '{kernel.name}'")
    a = tb.index[first]
    init_weight = float(tb.init_weights[a])
    if init_weight <= 0.0:
        raise OutOfClassError(f"{first} has zero initial weight")
    if len(path) == 1:
        return 1.0
    row_end = np.append(tb.adj_starts[1:], len(tb.adj_dst))
    log_tau = 0.0
    for t, (prev, cls) in enumerate(zip(path, path[1:]), start=1):
        # each row lists its destinations in sorted order: search the row's slice
        lo, hi, b = tb.adj_starts[a], row_end[a], tb.index.get(cls, -1)
        e = lo + np.searchsorted(tb.adj_dst[lo:hi], b)
        if e == hi or tb.adj_dst[e] != b:
            raise OutOfClassError(f"transition {prev} -> {cls} at step {t} has zero weight")
        log_tau += math.log(tb.adj_w[e])
        a = b
    return 1.0 + _start_charge(init_weight, tb.num_classes) - log_tau


def validate_loss_table(kernel: TransitionKernel, losses) -> np.ndarray:
    table = np.asarray(losses, dtype=float)
    if table.ndim != 2 or table.shape[0] == 0:
        raise ValueError(f"loss table must be nonempty and 2-D, got shape {table.shape}")
    if table.shape[1] != kernel.num_experts:
        raise ValueError(
            f"loss table has {table.shape[1]} columns, kernel expects {kernel.num_experts}"
        )
    if not np.all(np.isfinite(table)):
        raise ValueError("loss table contains NaN or infinite entries")
    return table


def best_competitor(
    kernel: TransitionKernel, losses
) -> tuple[tuple[ClassParams, ...], float]:
    """Minimum-cumulative-loss in-class path, by dynamic programming.

    A path's cost is the sum over rounds of the loss of the expert its class
    selects.  Ties are broken toward the lexicographically smallest class
    sequence.  Returns (path, cumulative loss).  The min-plus step depends
    only on the edge set, so two structures take it in closed form, with the
    same bits as the edge lists: a permutation kernel's path is fixed by its
    first class and keeps no back-pointers, and a fixed-share kernel (all
    k^2 edges) keeps one per round.  Other kernels keep one per class and
    round.
    """
    table = validate_loss_table(kernel, losses)
    rounds = table.shape[0]
    tb = kernel.tables
    k = tb.num_classes
    nnz = len(tb.adj_dst)
    steps = max(rounds - 1, 0)
    if tb.share is not None:
        back = np.empty(steps, dtype=np.intp)
    elif not tb.permutation:
        back = np.empty((steps, k), dtype=np.intp)
        edge_pos = np.arange(nnz)

    suffix = table[rounds - 1][tb.expert_of]
    for t in range(rounds - 2, -1, -1):
        if tb.permutation:
            # one successor per class: its suffix is the segment minimum
            seg_min = suffix[tb.adj_dst]
        elif tb.share is not None:
            # every class succeeds every class: each class's lex-smallest best
            # successor is the first minimum overall
            back[t] = np.argmin(suffix)
            seg_min = suffix[back[t]]
        else:
            cand = suffix[tb.adj_dst]
            seg_min = np.minimum.reduceat(cand, tb.adj_starts)
            # first minimal edge in each segment = lex-smallest successor
            marked = np.where(cand == seg_min[tb.adj_src], edge_pos, nnz)
            first_edge = np.minimum.reduceat(marked, tb.adj_starts)
            back[t] = tb.adj_dst[first_edge]
        suffix = table[t][tb.expert_of] + seg_min

    start_ok = tb.init_weights > 0.0
    masked = np.where(start_ok, suffix, np.inf)
    start = int(np.argmin(masked))  # first minimum = lex-smallest class
    best_loss = float(masked[start])
    if tb.permutation:
        succ = tb.adj_dst.tolist()  # adj_src is 0..k-1
        path_idx = [start]
        for _ in range(steps):
            path_idx.append(succ[path_idx[-1]])
    elif tb.share is not None:
        path_idx = [start] + back.tolist()
    else:
        path_idx = [start]
        for t in range(steps):
            path_idx.append(int(back[t][path_idx[-1]]))
    return tuple(tb.classes[i] for i in path_idx), best_loss


def best_prefix_losses(kernel: TransitionKernel, losses) -> np.ndarray:
    """Minimum in-class cumulative loss for every prefix of the loss table.

    One forward DP pass; entry t-1 is the best competitor loss over rounds
    1..t.  The final entry matches best_competitor's cumulative loss.  On a
    fixed-share kernel every class is carried the previous best, and on a
    permutation kernel its one predecessor's value: exactly what the
    edge-list minimum gives.
    """
    table = validate_loss_table(kernel, losses)
    rounds = table.shape[0]
    tb = kernel.tables
    k = tb.num_classes

    dp = np.where(tb.init_weights > 0.0, table[0][tb.expert_of], np.inf)
    out = np.empty(rounds)
    out[0] = dp.min()
    for t in range(1, rounds):
        if tb.share is not None:
            carried = out[t - 1]  # every class succeeds every class
        elif tb.permutation:
            carried = dp[tb.mix_src]  # each class's one predecessor; mix_dst_ids is 0..k-1
        else:
            cand = dp[tb.mix_src]
            seg_min = np.minimum.reduceat(cand, tb.mix_starts)
            carried = np.full(k, np.inf)
            carried[tb.mix_dst_ids] = seg_min
        dp = carried + table[t][tb.expert_of]
        out[t] = dp.min()
    return out
