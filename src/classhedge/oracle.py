"""Independent references used to validate the engine at desk scale.

Each oracle recomputes a quantity the engine or the DP produces, along a
deliberately different code path: the closed form of adaptive exponential
weights over fixed experts, the forward recursion on a dense transition
matrix for every kind of kernel, and exhaustive path enumeration.  They
share only the per-round formulas of the core module (centering, statistics,
learning rate and its schedule) and its bound formulas, never the engine's
grouped log-sum-exp machinery.  ``bound_report`` evaluates the second-order
regret bounds from run telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEGENERATE_ETA,
    InvariantViolation,
    as_budget,
    as_gamma,
    as_instance,
    as_integer,
    as_loss_array,
    as_real_array,
    as_simplex,
    bound_range,
    bound_var,
    center_losses,
    eta_ratio,
    learning_rate,
    round_stats,
)
from .kernels import _BLOCK, ClassParams, TransitionKernel

# Widest table whose row extremes bound_report reads by folding columns.
_NARROW = 16


@dataclass(frozen=True)
class BoundReport:
    """Second-order bound ingredients and the two bound values.

    ``bound_var`` and ``bound_range`` are the formulas of the same names in
    ``classhedge.core``, evaluated at (W, D, V_star) and (W, D, sum_d_sq).

    V_star is the summed per-round variance of the losses under the played
    probabilities; sum_d_sq the summed squared loss ranges.  Since a variance
    over any simplex is at most a quarter of the squared range, V_star never
    exceeds sum_d_sq / 4 and the variance bound refines the range bound.
    """

    w_budget: float
    D: float
    v_star: float
    sum_d_sq: float
    bound_var: float
    bound_range: float


def ewa_reference(losses, gamma: float) -> np.ndarray:
    """Adaptive exponential weights over fixed experts, in closed form.

    Centers each round's losses by the current expected loss (as the engine
    does), keeps its own running range D_t and variance sum V_t, and sets
    p_{t+1} proportional to exp(-eta_t * (L_t - min L_t)), where L_t is the
    cumulative centered loss and eta_t = gamma / sqrt(V_t + gamma^2 D_t^2).
    p stays uniform while every round so far was constant across experts.
    Returns a (T+1, M) array: row r is the probability vector of round r+1,
    so the last row is the distribution after the final update.
    """
    gamma = as_gamma(gamma)
    table = as_loss_array(np.atleast_2d(losses))[0]
    rounds, num_experts = table.shape
    out = np.empty((rounds + 1, num_experts))
    cum = np.zeros(num_experts)
    d_max = v_sum = carry = 0.0
    p = np.full(num_experts, 1.0 / num_experts)
    out[0] = p
    for t in range(rounds):
        row = table[t]
        _, phi, d, v = center_losses(row, p, float(row.min()), float(row.max()), t + 1)
        cum += phi
        d_max, v_sum, carry = round_stats(d, v, d_max, v_sum, carry)
        eta_t = learning_rate(d_max, v_sum, gamma, t + 1)
        if not math.isinf(eta_t):
            w = np.exp(-eta_t * (cum - cum.min()))
            p = w / w.sum()
        out[t + 1] = p
    return out


def trajectory_reference(kernel: TransitionKernel, losses, gamma: float) -> np.ndarray:
    """Expert-HMM forward recursion over any kernel, on a dense matrix.

    Fills a K x K log-transition matrix from ``successor_items`` (-inf where
    there is no edge), with its own class index and expert map read off
    ``classes``, and runs the engine's update through it: each
    destination's log-sum-exp is taken from its own maximum over all K
    sources, with no edge lists and no closed form.  Returns a (T+1, K)
    array of max-normalized log class weights in kernel class order; row r
    is the state used for round r+1.
    """
    gamma = as_gamma(gamma)
    kernel = as_instance(kernel, TransitionKernel, "kernel")
    table = as_loss_array(np.atleast_2d(losses), kernel.num_experts)[0]
    index = {cls: i for i, cls in enumerate(kernel.classes)}
    expert_of = np.array([cls[0] for cls in kernel.classes], dtype=np.intp)
    log_t = np.full((kernel.num_classes, kernel.num_classes), -np.inf)  # [destination, source]
    for src, cls in enumerate(kernel.classes):
        for dst, weight in kernel.successor_items(cls):
            log_t[index[dst], src] = math.log(weight)

    rounds = table.shape[0]
    out = np.empty((rounds + 1, kernel.num_classes))
    with np.errstate(divide="ignore"):
        # row 0 is the raw initial distribution, matching the engine's init state;
        # later rows are max-normalized like the engine's post-mixing state
        out[0] = log_u = np.log(kernel.init_weights)

    prev = DEGENERATE_ETA
    d_max = v_sum = carry = 0.0
    for t in range(rounds):
        by_expert = np.bincount(expert_of, np.exp(log_u - log_u.max()), kernel.num_experts)
        p = by_expert / by_expert.sum()

        row = table[t]
        _, phi, d, v = center_losses(row, p, float(row.min()), float(row.max()), t + 1)
        d_max, v_sum, carry = round_stats(d, v, d_max, v_sum, carry)
        eta_t = learning_rate(d_max, v_sum, gamma, t + 1)
        exponent, ratio = eta_ratio(eta_t, prev)

        terms = ratio * (log_u - exponent * phi[expert_of]) + log_t
        top = terms.max(axis=1)
        # a destination whose every term is -inf stays -inf: shift it by 0, not by -inf
        top[np.isneginf(top)] = 0.0
        with np.errstate(divide="ignore"):
            log_u = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
        log_u -= log_u.max()
        out[t + 1] = log_u
        prev = eta_t
    return out


def exhaustive_best(
    kernel: TransitionKernel, losses, limit: int = 100_000
) -> tuple[tuple[ClassParams, ...], float]:
    """Ground-truth best in-class path by enumerating every path.

    Returns (path, cumulative loss), as ``best_competitor`` does.  Walks
    paths in lexicographic class order and keeps the first strict minimum,
    or the first path if every cost is inf, which reproduces the DP's
    smallest-coordinates tie-break.  Costs are sums of Python floats, which
    pass the largest double to inf without a warning.  Refuses tables whose
    in-class path count exceeds ``limit``.
    """
    kernel = as_instance(kernel, TransitionKernel, "kernel")
    table = as_loss_array(np.atleast_2d(losses), kernel.num_experts)[0].tolist()
    limit = as_integer(limit, "limit", 1)
    rounds = len(table)
    successors = {cls: kernel.successor_items(cls) for cls in kernel.classes}
    starts = [cls for i, cls in enumerate(kernel.classes) if kernel.init_weights[i] > 0.0]
    counts = dict.fromkeys(kernel.classes, 1)  # paths of each length so far, by first class
    for _ in range(rounds - 1):
        counts = {cls: sum(counts[dst] for dst, _ in successors[cls]) for cls in kernel.classes}
    total = sum(counts[cls] for cls in starts)
    if total > limit:
        raise ValueError(f"{total} in-class paths exceed the enumeration limit {limit}")

    best_cost = math.inf
    best: tuple[ClassParams, ...] | None = None
    path: list[ClassParams] = []
    # depth-first on an explicit stack, pushed in reverse so paths pop in lexicographic order
    stack = [(cls, 1) for cls in reversed(starts)]
    while stack:
        cls, t = stack.pop()
        del path[t - 1:]
        path.append(cls)
        if t < rounds:
            stack.extend((dst, t + 1) for dst, _ in reversed(successors[cls]))
            continue
        cost = 0.0
        for back in range(rounds - 1, -1, -1):
            cost = table[back][path[back][0]] + cost
        if best is None or cost < best_cost:
            best_cost = cost
            best = tuple(path)
    return best, best_cost


def _fsum_or_inf(values: np.ndarray) -> float:
    """``math.fsum`` of contiguous nonnegative values, inf where their sum is past the largest double."""
    try:
        return math.fsum(memoryview(values))  # fsum reads a memoryview twice as fast as a list
    except OverflowError:
        return math.inf


def bound_report(w_budget: float, probs, losses) -> BoundReport:
    """Evaluate the second-order regret bounds from run telemetry.

    ``probs`` and ``losses`` are (T, M) arrays of the played probabilities
    and the raw losses.  Raises ValueError naming the first bad round unless
    every probability row is on the simplex and every loss is finite.  Raises
    InvariantViolation naming the first round whose range overflows when
    squared, as the engine does, and if the variance statistic exceeds a
    quarter of the summed squared ranges, which no valid telemetry can do.
    A sum of finite squares that is past the largest double is reported as
    inf, and so is the bound built on it, as a run's own ``RegretReport``
    (``sum_d_sq``, ``bound_range``) reads then.
    """
    w = as_budget(w_budget)
    p = as_real_array(probs, "probabilities")
    l = as_loss_array(losses, p.shape[-1])[0]
    if p.shape != l.shape or p.ndim != 2:
        raise ValueError(f"probs {p.shape} and losses {l.shape} must be matching 2-D arrays")
    as_simplex(p)
    # Row extremes without min(axis=1), which sets up a reduce per row.  A
    # narrow table copies each block transposed and folds the copy's rows
    # (the table's columns) elementwise; a wide one takes reduceat over the
    # raveled rows, where the fold would make many short passes.  The two may
    # give a zero of either sign; the ranges below do not depend on it.
    rounds, experts = l.shape
    if experts <= _NARROW:
        lo, hi = np.empty(rounds), np.empty(rounds)
        width = _BLOCK // experts
        for a in range(0, rounds, width):
            cols = l[a:a + width].T.copy()
            np.minimum.reduce(cols, axis=0, out=lo[a:a + width])
            np.maximum.reduce(cols, axis=0, out=hi[a:a + width])
    else:
        flat, starts = l.ravel(), np.arange(0, l.size, experts)
        lo, hi = np.minimum.reduceat(flat, starts), np.maximum.reduceat(flat, starts)
    # each row's mean kept inside its [min, max], as the engine centers
    mu = np.einsum("tm,tm->t", p, l)
    np.minimum(np.maximum(mu, lo, out=mu), hi, out=mu)
    with np.errstate(over="ignore"):
        # x -> fl(x - mu) is monotone, so these are the row ranges of phi, bit for bit
        ranges = (hi - mu) - (lo - mu)
    d_top = float(ranges.max())
    if not math.isfinite(d_top * d_top):
        # a row's |l - mu| is at most its range: checked before anything is squared
        t, d = next((t, d) for t, d in enumerate(ranges.tolist(), 1) if not math.isfinite(d * d))
        raise InvariantViolation(f"round {t}: score range {d!r} overflows when squared")
    # Squared deviations a block of rows at a time: a (T, M) temporary can be
    # a fresh mapping, its pages faulted in on every call.  einsum sums a lone
    # row of over 8,192 entries in another order than the same row in a
    # taller block, so only a one-round table has a block of one row; a last
    # block that would be one row takes the row before it again.
    variances = np.empty(rounds)
    width = max(2, _BLOCK // experts)
    for a in range(0, rounds, width):
        a = max(0, min(a, rounds - width))
        sq = l[a:a + width] - mu[a:a + width, None]
        sq *= sq
        np.einsum("tm,tm->t", p[a:a + width], sq, out=variances[a:a + width])

    v_star = _fsum_or_inf(variances)
    sum_d_sq = _fsum_or_inf(ranges * ranges)
    if v_star > sum_d_sq / 4.0 + 1e-9 * max(1.0, sum_d_sq):
        raise InvariantViolation(
            f"variance sum {v_star!r} exceeds a quarter of the squared ranges {sum_d_sq!r}"
        )
    return BoundReport(
        w_budget=w,
        D=d_top,
        v_star=v_star,
        sum_d_sq=sum_d_sq,
        bound_var=float(bound_var(w, d_top, v_star)),
        bound_range=float(bound_range(w, d_top, sum_d_sq)),
    )
