"""Per-round scalar math for the adaptive expert aggregator.

Centering of raw losses into performance scores, the range/variance
round statistics, the adaptive learning rate eta = gamma / sqrt(V + gamma^2 D^2),
the closed-form gamma for a given competition-class budget, and the two
second-order regret bounds.  The helpers trust their inputs: inputs are
validated once, at ``Aggregator.observe`` and in the CLI.

Everything here is a pure function over value types; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 2*(e - 2): the curvature constant behind the 2.4 factor in the regret bounds.
TWO_E_MINUS_2 = 2.0 * (math.e - 2.0)

#: Sentinel learning rate used while every observed loss vector has been
#: constant across experts (V = 0 and D = 0).  The weight update is invariant
#: to eta in that regime, so the engine treats exp(-eta*phi) as 1 and the
#: ratio eta_t / eta_{t-1} as 1 until a real signal arrives.
DEGENERATE_ETA = math.inf


class ConfigError(ValueError):
    """A user-supplied parameter is out of its valid range."""


class ProtocolError(RuntimeError):
    """The declare-probabilities / observe-losses round protocol was violated."""


class OutOfClassError(ValueError):
    """A competitor path uses a transition the kernel assigns zero weight."""


class InvariantViolation(RuntimeError):
    """A runtime invariant of the algorithm failed to hold."""


def as_loss_array(values, num_experts: int | None = None) -> np.ndarray:
    """Validate a per-expert loss vector: 1-D, nonempty, all entries finite.

    NaN or infinite entries are rejected rather than clamped; the range
    statistic D would be silently corrupted otherwise.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"loss vector must be 1-D and nonempty, got shape {arr.shape}")
    if num_experts is not None and arr.size != num_experts:
        raise ValueError(f"expected {num_experts} losses, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("loss vector contains NaN or infinite entries")
    return arr


def as_simplex(values, num_experts: int | None = None, tol: float = 1e-9) -> np.ndarray:
    """Validate a probability vector: entries >= 0, sum == 1 within tol."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"probability vector must be 1-D and nonempty, got shape {arr.shape}")
    if num_experts is not None and arr.size != num_experts:
        raise ValueError(f"expected {num_experts} probabilities, got {arr.size}")
    if np.any(arr < -tol) or not math.isfinite(float(arr.sum())):
        raise ValueError("probabilities must be nonnegative and finite")
    if abs(float(arr.sum()) - 1.0) > tol:
        raise ValueError(f"probabilities sum to {arr.sum()!r}, not 1")
    return arr


@dataclass(frozen=True)
class RoundStats:
    """Range/variance statistics accumulated over rounds.

    d: current-round score range, max_m phi_m - min_m phi_m.
    v: current-round second moment of phi under the selection probabilities.
    D: running max of d.  V: running sum of v (compensated summation).
    """

    d: float = 0.0
    v: float = 0.0
    D: float = 0.0
    V: float = 0.0
    t: int = 0
    v_carry: float = 0.0  # Kahan compensation for V


@dataclass(frozen=True)
class LearningRate:
    """Adaptive rate eta = gamma / sqrt(V + gamma^2 D^2); inf when degenerate."""

    eta: float
    gamma: float

    @property
    def degenerate(self) -> bool:
        return math.isinf(self.eta)


def center_losses(losses, probs) -> np.ndarray:
    """Shift losses by their probability-weighted mean.

    The computed mean is kept inside [min l, max l], where the exact mean
    lies, so max(phi) >= 0 >= min(phi) holds exactly and a loss vector that
    is constant across experts centers to exact zeros (a degenerate round).
    """
    l = np.asarray(losses, dtype=float)
    mu = float(np.asarray(probs, dtype=float) @ l)
    return l - min(max(mu, float(l.min())), float(l.max()))


def round_stats(phi, probs, prev: RoundStats) -> RoundStats:
    """Fold one round of centered scores into the running statistics.

    d = max(phi) - min(phi);  v = E_p[phi^2];  D = max(D_prev, d);
    V = V_prev + v, accumulated with compensated summation.  Raises
    InvariantViolation if d^2 overflows; centered |phi_m| <= d, so phi^2 cannot.
    """
    values = np.asarray(phi, dtype=float)
    p = np.asarray(probs, dtype=float)
    d = float(values.max() - values.min())
    if not math.isfinite(d * d):
        raise InvariantViolation(f"round {prev.t + 1}: score range {d!r} overflows when squared")
    v = float(p @ (values * values))
    # Kahan step: V + v with carried low-order bits.
    y = v - prev.v_carry
    total = prev.V + y
    carry = (total - prev.V) - y
    return RoundStats(d=d, v=v, D=max(prev.D, d), V=total, t=prev.t + 1, v_carry=carry)


def as_gamma(gamma) -> float:
    """Validate the rate scale gamma: a positive finite real."""
    if not (isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma > 0):
        raise ConfigError(f"gamma must be a positive finite real, got {gamma!r}")
    return float(gamma)


def learning_rate(stats: RoundStats, gamma: float) -> LearningRate:
    """eta_t = gamma / sqrt(V_t + gamma^2 * D_t^2); degenerate when the radicand is 0.

    A radicand that overflows raises InvariantViolation; gamma is checked by ``as_gamma``.
    """
    radicand = stats.V + gamma * gamma * stats.D * stats.D
    if not math.isfinite(radicand):
        raise InvariantViolation(
            f"round {stats.t}: rate radicand is {radicand!r}; the loss scale overflows"
        )
    if radicand <= 0.0:
        return LearningRate(eta=DEGENERATE_ETA, gamma=float(gamma))
    return LearningRate(eta=float(gamma) / math.sqrt(radicand), gamma=float(gamma))


def eta_ratio(current: LearningRate, previous: LearningRate) -> float:
    """Mixing exponent eta_t / eta_{t-1}; defined as 1 in the degenerate regime."""
    if previous.degenerate or current.degenerate:
        return 1.0
    return current.eta / previous.eta


def bound_var(w_budget, d_max, v_star):
    """Variance bound W*D + 2.4*sqrt(W*V*); arrays or scalars, elementwise."""
    return w_budget * d_max + 2.4 * np.sqrt(w_budget * v_star)


def bound_range(w_budget, d_max, sum_d_sq):
    """Range bound W*D + 1.2*sqrt(W*sum d^2); arrays or scalars, elementwise."""
    return w_budget * d_max + 1.2 * np.sqrt(w_budget * sum_d_sq)


def gamma_from_budget(w_budget: float) -> float:
    """Closed-form gamma = sqrt(W / (2(e-2))) for a class budget W >= 1."""
    if not (isinstance(w_budget, (int, float)) and math.isfinite(w_budget) and w_budget >= 1.0):
        raise ConfigError(f"class budget must be a finite real >= 1, got {w_budget!r}")
    return math.sqrt(w_budget / TWO_E_MINUS_2)
