"""Competition classes as equivalence-class spaces with stochastic transitions.

A competition class is described by a finite set of equivalence classes
(tuples of small integers whose first coordinate is the current expert) and a
row-stochastic transition map between consecutive rounds.  Built-ins cover
the fixed-expert class, the cyclic moving-rate class, and a fixed-share style
switching class.  The module also provides the class budget
W = 1 + log(max |Omega|) - log(product of transition weights) used to choose
gamma, and the dynamic-programming search for the best in-class competitor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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
        Sparse successor lists; each row must have strictly positive weights
        summing to 1.  Each row is iterated once, while the tables are built.
    init_weights : mapping class -> weight, optional
        Distribution over classes for the first round (the transition out of
        the virtual root); defaults to uniform.  Must sum to 1.
    budget : float or callable (T -> float), optional
        Declared upper bound on the class budget of any in-class competitor
        over a T-round game.  Built-ins declare it; user kernels may pass
        None and supply gamma explicitly.

    Kernels are immutable after construction and safe to share across
    threads.  ``tables`` holds the index structures the engine and the DPs
    read.
    """

    def __init__(
        self,
        name: str,
        num_experts: int,
        classes: Iterable[ClassParams],
        successors: Mapping[ClassParams, Iterable[tuple[ClassParams, float]]],
        init_weights: Mapping[ClassParams, float] | None = None,
        budget: float | Callable[[int], float] | None = None,
    ):
        if num_experts < 1:
            raise ConfigError(f"num_experts must be >= 1, got {num_experts}")
        self.name = str(name)
        self.num_experts = int(num_experts)
        self._budget = budget
        self.tables = self._build_tables(classes, successors, init_weights)

    def _build_tables(self, classes, successors, init_weights) -> KernelTables:
        class_list = sorted({_as_class(c) for c in classes})
        if not class_list:
            raise ConfigError("kernel needs at least one class")
        for cls in class_list:
            if not 0 <= cls[0] < self.num_experts:
                raise ConfigError(f"class {cls} selects expert outside 0..{self.num_experts - 1}")
        index = {cls: i for i, cls in enumerate(class_list)}
        k = len(class_list)

        expert_of = np.array([cls[0] for cls in class_list], dtype=np.intp)
        missing = set(range(self.num_experts)) - set(int(m) for m in expert_of)
        if missing:
            warnings.warn(
                f"kernel '{self.name}' has no class for experts {sorted(missing)}; "
                "their selection probability will be structurally zero",
                stacklevel=3,
            )
        present_experts, expert_starts = np.unique(expert_of, return_index=True)
        class_seg = np.repeat(
            np.arange(len(present_experts)), np.diff(np.append(expert_starts, k))
        )

        src_idx: list[int] = []
        dst_idx: list[int] = []
        weights: list[float] = []
        for cls in class_list:
            if cls not in successors:
                raise ConfigError(f"class {cls} has no successor row")
            row = []
            for dst, w in successors[cls]:
                dst = _as_class(dst)
                w = float(w)
                if dst not in index:
                    raise ConfigError(f"successor {dst} of {cls} is not in the class space")
                if not (math.isfinite(w) and w > 0.0):
                    raise ConfigError(f"transition weight {cls} -> {dst} must be positive, got {w}")
                row.append((dst, w))
            total = math.fsum(w for _, w in row)
            if abs(total - 1.0) > _ROW_TOL:
                raise ConfigError(f"row for {cls} sums to {total!r}, not 1")
            row.sort(key=lambda item: item[0])
            for dst, w in row:
                src_idx.append(index[cls])
                dst_idx.append(index[dst])
                weights.append(w)

        src = np.array(src_idx, dtype=np.intp)
        dst = np.array(dst_idx, dtype=np.intp)
        raw_w = np.array(weights, dtype=float)
        logw = np.log(raw_w)

        order = np.lexsort((src, dst))
        mix_src, mix_dst, mix_logw = src[order], dst[order], logw[order]
        mix_dst_ids, mix_starts = np.unique(mix_dst, return_index=True)
        mix_seg = np.repeat(
            np.arange(len(mix_dst_ids)), np.diff(np.append(mix_starts, len(mix_dst)))
        )

        # rows were visited in class order and sorted, so edges are in (src, dst)
        # order; every row is nonempty, so source segments cover 0..k-1
        adj_starts = np.searchsorted(src, np.arange(k))

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
        budget: float | Callable[[int], float] | None = None,
    ) -> "TransitionKernel":
        """Build a kernel from a dense row-stochastic matrix (rows = sources).

        Zero entries are dropped; the sparse successor-list form is what the
        engine consumes.
        """
        class_list = [_as_class(c) for c in classes]
        mat = np.asarray(matrix, dtype=float)
        if mat.shape != (len(class_list), len(class_list)):
            raise ConfigError(f"matrix shape {mat.shape} does not match {len(class_list)} classes")
        successors = {
            a: [(b, float(mat[i, j])) for j, b in enumerate(class_list) if mat[i, j] != 0.0]
            for i, a in enumerate(class_list)
        }
        return cls(name, num_experts, class_list, successors, init_weights, budget)

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

    def budget_bound(self, rounds: int) -> float | None:
        """Declared budget bound W_T for a game of the given length, if any."""
        if self._budget is None:
            return None
        if callable(self._budget):
            return float(self._budget(int(rounds)))
        return float(self._budget)

    def __repr__(self) -> str:
        return (
            f"TransitionKernel(name={self.name!r}, experts={self.num_experts}, "
            f"classes={self.tables.num_classes})"
        )


def fixed_kernel(num_experts: int) -> TransitionKernel:
    """One class per expert, each a self-loop: the classic fixed-expert class."""
    classes = [(m,) for m in range(num_experts)]
    successors = {(m,): [((m,), 1.0)] for m in range(num_experts)}
    return TransitionKernel(
        "fixed",
        num_experts,
        classes,
        successors,
        budget=1.0 + math.log(num_experts),
    )


def cyclic_kernel(num_experts: int) -> TransitionKernel:
    """Classes (m, sigma) that advance the expert by sigma (mod M) every round.

    The successor map is a permutation of the M^2 classes, so the class count
    stays fixed and each class has exactly one predecessor.
    """
    m_range = range(num_experts)
    classes = [(m, s) for m in m_range for s in m_range]
    successors = {
        (m, s): [(((m + s) % num_experts, s), 1.0)] for m in m_range for s in m_range
    }
    return TransitionKernel(
        "cyclic",
        num_experts,
        classes,
        successors,
        budget=1.0 + 2.0 * math.log(num_experts),
    )


def switching_kernel(num_experts: int, switch_weight: float) -> TransitionKernel:
    """Fixed-share style class: stay with weight 1 - w, spread w over the rest.

    The worst in-class competitor over T rounds pays the larger of the two
    per-step log penalties at every step, which is what the declared budget
    bound charges.
    """
    if num_experts < 2:
        raise ConfigError(f"switching kernel needs at least 2 experts, got {num_experts}")
    w = float(switch_weight)
    if not (0.0 < w < 1.0 and math.isfinite(w)):
        raise ConfigError(f"switch_weight must lie in (0, 1), got {switch_weight!r}")
    stay, off = 1.0 - w, w / (num_experts - 1)
    classes = [(m,) for m in range(num_experts)]

    def row(m: int):
        # consumed while the tables are built: the M^2 pairs never all exist at once
        return ((cls, stay if m2 == m else off) for m2, cls in enumerate(classes))

    successors = {cls: row(m) for m, cls in enumerate(classes)}
    step = max(-math.log(1.0 - w), -math.log(off))
    return TransitionKernel(
        "switching",
        num_experts,
        classes,
        successors,
        budget=lambda rounds: 1.0 + math.log(num_experts) + max(rounds - 1, 0) * step,
    )


def class_budget(kernel: TransitionKernel, competitor: Sequence[ClassParams]) -> float:
    """Exact budget W = 1 + log(max |Omega|) - sum of log transition weights.

    The competitor must be a valid in-class path: its first class must carry
    positive initial weight and every step must use a positive-weight
    transition.  The initial weight itself is not charged: for the uniform
    initial distribution its -log equals log |Omega|, which the max-|Omega|
    term already accounts for (a one-round game therefore has budget 1).
    """
    path = [_as_class(c) for c in competitor]
    if not path:
        raise ValueError("competitor path is empty")
    tb = kernel.tables
    first = path[0]
    if first not in tb.index:
        raise OutOfClassError(f"{first} is not a class of kernel '{kernel.name}'")
    if tb.init_weights[tb.index[first]] <= 0.0:
        raise OutOfClassError(f"{first} has zero initial weight")
    log_tau = 0.0
    for t, (a, b) in enumerate(zip(path, path[1:]), start=1):
        row = dict(kernel.successor_items(a))
        if b not in row:
            raise OutOfClassError(f"transition {a} -> {b} at step {t} has zero weight")
        log_tau += math.log(row[b])
    max_omega = tb.num_classes if len(path) > 1 else 1  # only the virtual root precedes round 1
    return 1.0 + math.log(max_omega) - log_tau


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
    only on the edge set, so a fixed-share kernel (all k^2 edges) takes it in
    closed form; the result is the same bits either way.
    """
    table = validate_loss_table(kernel, losses)
    rounds = table.shape[0]
    tb = kernel.tables
    k = tb.num_classes
    nnz = len(tb.adj_dst)
    edge_pos = np.arange(nnz)

    suffix = table[rounds - 1][tb.expert_of]
    back = np.empty((max(rounds - 1, 0), k), dtype=np.intp)
    for t in range(rounds - 2, -1, -1):
        if tb.share is not None:
            # every class succeeds every class: each class's lex-smallest best
            # successor is the first minimum overall
            first = int(np.argmin(suffix))
            back[t] = first
            seg_min = suffix[first]
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
    path_idx = [start]
    for t in range(rounds - 1):
        path_idx.append(int(back[t][path_idx[-1]]))
    return tuple(tb.classes[i] for i in path_idx), best_loss


def best_prefix_losses(kernel: TransitionKernel, losses) -> np.ndarray:
    """Minimum in-class cumulative loss for every prefix of the loss table.

    One forward DP pass; entry t-1 is the best competitor loss over rounds
    1..t.  The final entry matches best_competitor's cumulative loss.  On a
    fixed-share kernel every class is carried the previous best, exactly
    what the edge-list minimum gives.
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
        else:
            cand = dp[tb.mix_src]
            seg_min = np.minimum.reduceat(cand, tb.mix_starts)
            carried = np.full(k, np.inf)
            carried[tb.mix_dst_ids] = seg_min
        dp = carried + table[t][tb.expert_of]
        out[t] = dp.min()
    return out
