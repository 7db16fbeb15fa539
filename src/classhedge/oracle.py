"""Independent references used to validate the engine at desk scale.

Each oracle recomputes a quantity the engine or the DP produces, along a
deliberately different code path: the closed form of adaptive exponential
weights over fixed experts, a per-trajectory weight recursion for
permutation kernels, and exhaustive path enumeration.  They share only the
scalar centering, learning-rate and bound formulas with the core module,
never the engine's grouped log-sum-exp machinery.  ``bound_report``
evaluates the second-order regret bounds from run telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    InvariantViolation,
    LearningRate,
    RoundStats,
    as_gamma,
    bound_range,
    bound_var,
    center_losses,
    eta_ratio,
    learning_rate,
)
from .kernels import ClassParams, TransitionKernel, validate_loss_table


@dataclass(frozen=True)
class StrategyPath:
    """A deterministic expert-selection sequence and its realized cost."""

    selections: tuple[int, ...]
    cum_loss: float
    classes: tuple[ClassParams, ...]


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
    table = np.asarray(losses, dtype=float)
    if table.ndim != 2 or not np.all(np.isfinite(table)):
        raise ValueError("loss table must be 2-D and finite")
    rounds, num_experts = table.shape
    out = np.empty((rounds + 1, num_experts))
    cum = np.zeros(num_experts)
    d_max = v_sum = 0.0
    p = np.full(num_experts, 1.0 / num_experts)
    out[0] = p
    for t in range(rounds):
        phi = center_losses(table[t], p)
        cum += phi
        d_max = max(d_max, float(phi.max() - phi.min()))
        v_sum += float(p @ (phi * phi))
        eta_t = learning_rate(RoundStats(D=d_max, V=v_sum, t=t + 1), gamma)
        if not eta_t.degenerate:
            w = np.exp(-eta_t.eta * (cum - cum.min()))
            p = w / w.sum()
        out[t + 1] = p
    return out


def trajectory_reference(kernel: TransitionKernel, losses, gamma: float) -> np.ndarray:
    """Per-trajectory weight recursion for permutation kernels.

    When every class has exactly one successor and the successor map is a
    bijection, each initial class spawns one trajectory and class weights
    never merge, so the engine's update can be followed one trajectory at a
    time with plain scalar arithmetic (no grouped log-sum-exp).  Returns a
    (T+1, K) array of max-normalized log class weights in kernel class
    order; row r is the state used for round r+1.
    """
    gamma = as_gamma(gamma)
    table = validate_loss_table(kernel, losses)
    tb = kernel.tables
    k = tb.num_classes
    succ = np.empty(k, dtype=np.intp)
    for i, cls in enumerate(tb.classes):
        items = kernel.successor_items(cls)
        if len(items) != 1:
            raise ValueError(
                f"kernel '{kernel.name}' is not deterministic: {cls} has {len(items)} successors"
            )
        succ[i] = tb.index[items[0][0]]
    if len(set(succ.tolist())) != k:
        raise ValueError(
            f"kernel '{kernel.name}' merges trajectories; per-trajectory weights "
            "would not match the class weights"
        )

    rounds = table.shape[0]
    out = np.empty((rounds + 1, k))
    cur = np.arange(k)
    with np.errstate(divide="ignore"):
        log_u = np.log(tb.init_weights)
    # row 0 is the raw initial distribution, matching the engine's init state;
    # later rows are max-normalized like the engine's post-mixing state
    out[0][cur] = log_u

    prev: LearningRate | None = None
    d_max = 0.0
    v_sum = 0.0
    for t in range(rounds):
        shifted = np.exp(log_u - log_u.max())
        by_expert = np.zeros(kernel.num_experts)
        np.add.at(by_expert, tb.expert_of[cur], shifted)
        p = by_expert / by_expert.sum()

        phi = center_losses(table[t], p)
        d = float(phi.max() - phi.min())
        v = float(p @ (phi * phi))
        d_max = max(d_max, d)
        v_sum += v
        eta_t = learning_rate(RoundStats(d=d, v=v, D=d_max, V=v_sum, t=t + 1), gamma)

        prev_eff = eta_t if prev is None or prev.degenerate else prev
        exponent = 0.0 if prev_eff.degenerate else prev_eff.eta
        ratio = eta_ratio(eta_t, prev_eff)

        log_u = ratio * (log_u - exponent * phi[tb.expert_of[cur]])
        log_u -= log_u.max()
        cur = succ[cur]
        out[t + 1][cur] = log_u
        prev = eta_t
    return out


def _count_paths(kernel: TransitionKernel, rounds: int, successors: dict) -> int:
    tb = kernel.tables
    counts = {cls: 1 for cls in tb.classes}
    for _ in range(rounds - 1):
        counts = {
            cls: sum(counts[dst] for dst, _ in successors[cls]) for cls in tb.classes
        }
    return sum(
        counts[cls]
        for i, cls in enumerate(tb.classes)
        if tb.init_weights[i] > 0.0
    )


def exhaustive_best(
    kernel: TransitionKernel, losses, limit: int = 100_000
) -> StrategyPath:
    """Ground-truth best in-class path by enumerating every path.

    Walks paths in lexicographic class order and keeps the first strict
    minimum, which reproduces the DP's smallest-coordinates tie-break.
    Refuses tables whose in-class path count exceeds ``limit``.
    """
    table = validate_loss_table(kernel, losses)
    rounds = table.shape[0]
    tb = kernel.tables
    successors = {cls: kernel.successor_items(cls) for cls in tb.classes}
    total = _count_paths(kernel, rounds, successors)
    if total > limit:
        raise ValueError(f"{total} in-class paths exceed the enumeration limit {limit}")

    best_cost = math.inf
    best: list[ClassParams] | None = None
    path: list[ClassParams] = []

    def walk(cls: ClassParams, t: int) -> None:
        nonlocal best_cost, best
        path.append(cls)
        if t == rounds:
            cost = 0.0
            for back, step in zip(range(rounds - 1, -1, -1), reversed(path)):
                cost = table[back][step[0]] + cost
            if cost < best_cost:
                best_cost = cost
                best = list(path)
        else:
            for dst, _ in successors[cls]:
                walk(dst, t + 1)
        path.pop()

    for i, cls in enumerate(tb.classes):
        if tb.init_weights[i] > 0.0:
            walk(cls, 1)

    assert best is not None
    return StrategyPath(
        selections=tuple(cls[0] for cls in best),
        cum_loss=float(best_cost),
        classes=tuple(best),
    )


def bound_report(w_budget: float, probs, losses) -> BoundReport:
    """Evaluate the second-order regret bounds from run telemetry.

    ``probs`` and ``losses`` are (T, M) arrays of the played probabilities
    and the raw losses.  Raises if the variance statistic exceeds a quarter
    of the summed squared ranges, which no valid telemetry can do.
    """
    w = float(w_budget)
    if not (math.isfinite(w) and w >= 1.0):
        raise ConfigError(f"class budget must be a finite real >= 1, got {w_budget!r}")
    p = np.asarray(probs, dtype=float)
    l = np.asarray(losses, dtype=float)
    if p.shape != l.shape or p.ndim != 2:
        raise ValueError(f"probs {p.shape} and losses {l.shape} must be matching 2-D arrays")
    mu = np.einsum("tm,tm->t", p, l)
    phi = l - mu[:, None]
    variances = np.einsum("tm,tm->t", p, phi * phi)
    ranges = phi.max(axis=1) - phi.min(axis=1)

    v_star = math.fsum(variances)
    sum_d_sq = math.fsum(r * r for r in ranges)
    d_top = float(ranges.max()) if ranges.size else 0.0
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
