"""Per-round scalar math for the adaptive expert aggregator.

Centering of raw losses into performance scores, the range/variance
round statistics, the adaptive learning rate eta = gamma / sqrt(V + gamma^2 D^2),
the closed-form gamma for a given competition-class budget, and the two
second-order regret bounds; and the input gates, one per kind of value a
caller passes (``as_real_array`` under ``as_loss_array`` and ``as_simplex``,
``as_real``, ``as_integer``, ``as_instance``, ``as_sequence``, ``as_path``).
Every public entry point checks each such value with its gate, and only
there; the math helpers trust their inputs.

Everything here is a pure function over floats and arrays; no shared mutable state.
"""

from __future__ import annotations

import math
import numbers
import os

import numpy as np

# 2*(e - 2): the curvature constant behind the 2.4 factor in the regret bounds.
TWO_E_MINUS_2 = 2.0 * (math.e - 2.0)

#: Sentinel learning rate used while every observed loss vector has been
#: constant across experts (V = 0 and D = 0).  The weight update is invariant
#: to eta in that regime, so the engine treats exp(-eta*phi) as 1 and the
#: ratio eta_t / eta_{t-1} as 1 until a real signal arrives.
DEGENERATE_ETA = math.inf
#: A caller's probabilities may be as low as -SIMPLEX_TOL and sum to 1 within it.
SIMPLEX_TOL = 1e-9
#: A game's rounds index its arrays, and a budget multiplies their count by a float.
MAX_ROUNDS = int(np.iinfo(np.intp).max)
_FLOAT64 = np.dtype(float)


class ConfigError(ValueError):
    """A user-supplied parameter is out of its valid range."""


class ProtocolError(RuntimeError):
    """The declare-probabilities / observe-losses round protocol was violated."""


class OutOfClassError(ValueError):
    """A competitor path uses a transition the kernel assigns zero weight."""


class InvariantViolation(RuntimeError):
    """A runtime invariant of the algorithm failed to hold."""


def as_real_array(values, what: str) -> np.ndarray:
    """A caller's vector or (T, M) table of ``what``, nonempty, as float64: bool, integer or
    float entries; strings, objects and complex numbers are refused before any conversion."""
    arr = np.asarray(values)
    if arr.dtype is not _FLOAT64:  # native float64 is one dtype object: no test, no copy
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"{what} must be real numbers, not {arr.dtype}")
        arr = arr.astype(float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty vector or table, not shape {arr.shape}")
    return arr


def as_loss_array(values, num_experts: int | None = None) -> tuple[np.ndarray, float, float]:
    """Validate one round's loss vector, or a (T, M) table of them: real (``as_real_array``),
    ``num_experts`` wide if given, and finite, not clamped, which would corrupt the range
    statistic D.  Returns the array with its first least and first greatest entry, which decide
    finiteness (``argmin`` and ``argmax`` stop at the first NaN, an infinity is one of them).
    A table's first bad row is named as its round, from 1."""
    arr = as_real_array(values, "losses")
    if num_experts is not None and arr.shape[-1] != num_experts:
        raise ValueError(f"losses have {arr.shape[-1]} columns, expected {num_experts}")
    # by position: cheaper than min() and max(), and a tie of -0.0 and 0.0 goes to the first
    lo, hi = arr.item(arr.argmin()), arr.item(arr.argmax())
    if not (-math.inf < lo and hi < math.inf):
        where = f"round {np.isfinite(arr).all(axis=1).argmin() + 1}: " if arr.ndim == 2 else ""
        raise ValueError(f"{where}losses contain NaN or infinite entries")
    return arr, lo, hi


def as_real(value, what: str, rule: str | None = None, valid=None) -> float:
    """A caller's real parameter as a float: a real number, not a bool, finite (an
    int beyond the double range is not) and ``valid`` if given.  Else ConfigError
    "<what> must be <rule>, got <value>", where no ``rule`` reads "a real number"
    or "finite", whichever failed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be {rule or 'a real number'}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int (or a ratio of ints) beyond the double range
        finite = False
    if not (finite and (valid is None or valid(value))):
        raise ConfigError(f"{what} must be {rule or 'finite'}, got {value!r}")
    return float(value)


def as_integer(value, what: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """A caller's integer parameter as an int: an integer, not a bool, and at
    least ``minimum`` and at most ``maximum`` if given; anything else is a
    ConfigError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{what} must be <= {maximum}, got {value!r}")
    return int(value)


def as_instance(value, kind: type, what: str):
    """A caller's object-typed parameter (a kernel, a random generator, a mapping,
    a config) as given: an instance of ``kind``, else a ConfigError naming ``what``."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def as_sequence(value, what: str, of: str) -> tuple:
    """A caller's sequence as a tuple: iterable and not a string, else a ConfigError naming ``what``."""
    try:
        items = iter(value)  # a 0-d array has __iter__, and this raises TypeError
    except TypeError:
        items = None
    if items is None or isinstance(value, (str, bytes)):
        raise ConfigError(f"{what} must be a sequence of {of}, got {value!r}")
    return tuple(items)


def as_path(value, what: str):
    """A caller's file path as given: a str or an os.PathLike, never an int, a descriptor to ``open``."""
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{what} must be a str or os.PathLike, got {value!r}")
    return value


def as_simplex(values) -> np.ndarray:
    """Validate a probability vector, or a (T, M) table with one per row (``as_real_array``):
    entries finite and >= -SIMPLEX_TOL, each vector summing to 1 within SIMPLEX_TOL.  A
    table's first bad row is named as its round, counting from 1."""
    arr = as_real_array(values, "probabilities")
    rows = arr.reshape(-1, arr.shape[-1])
    sums = np.einsum("ij->i", rows)
    # NaN fails every test; per-row minima, slow on narrow rows, only if some entry is negative
    bad = ~(np.abs(sums - 1.0) <= SIMPLEX_TOL)
    if not rows.min(initial=0.0) >= -SIMPLEX_TOL:
        bad |= ~(rows >= -SIMPLEX_TOL).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        where = f"round {i + 1}: " if arr.ndim == 2 else ""
        raise ValueError(f"{where}probabilities must be nonnegative and sum to 1, not {sums[i]}")
    return arr


def center_losses(losses, probs, lo: float, hi: float, t: int) -> tuple[float, np.ndarray, float, float]:
    """Center round ``t``'s losses l, with lo = min l and hi = max l: (mean, phi, d, v).

    The mean p . l is kept inside [lo, hi], where the exact mean lies, so
    max(phi) >= 0 >= min(phi) holds exactly for phi = l - mean, and a loss
    vector that is constant across experts has exactly its constant as mean
    (a degenerate round, no regret).  d = max phi - min phi and v = p . phi^2;
    a d whose square overflows raises InvariantViolation before phi is squared.
    """
    mean = min(max(float(probs.dot(losses)), lo), hi)  # p @ x's cblas_ddot, less set-up
    phi = losses - mean
    # x -> fl(x - mean) is monotone, so these are exactly phi.max() and phi.min()
    d = (hi - mean) - (lo - mean)
    if not math.isfinite(d * d):  # centered |phi_m| <= d
        raise InvariantViolation(f"round {t}: score range {d!r} overflows when squared")
    return mean, phi, d, float(probs.dot(phi * phi))


def round_stats(d: float, v: float, D: float, V: float, carry: float) -> tuple[float, float, float]:
    """Fold one round's range d = max phi - min phi and second moment v = E_p[phi^2].

    Returns (D, V, carry): D = max(D_prev, d) and V = V_prev + v, accumulated
    with compensated summation whose low-order bits ride in ``carry``.
    """
    y = v - carry
    total = V + y
    return max(D, d), total, (total - V) - y


def as_gamma(gamma) -> float:
    """Validate the rate scale gamma: a positive finite real, not a bool."""
    return as_real(gamma, "gamma", "a positive finite real", lambda g: g > 0)


def learning_rate(D: float, V: float, gamma: float, t: int) -> float:
    """eta_t = gamma / sqrt(V_t + gamma^2 * D_t^2); DEGENERATE_ETA when the radicand is 0.

    A radicand that overflows, or a rate that underflows to 0 (a gamma tiny
    against the loss scale), raises InvariantViolation naming round ``t``;
    gamma is checked by ``as_gamma``.
    """
    radicand = V + gamma * gamma * D * D
    if not math.isfinite(radicand):
        raise InvariantViolation(f"round {t}: rate radicand is {radicand!r}; the loss scale overflows")
    if radicand <= 0.0:
        return DEGENERATE_ETA
    eta = gamma / math.sqrt(radicand)
    if eta == 0.0:  # the next round's step ratio would divide by it
        raise InvariantViolation(f"round {t}: learning rate {gamma!r}/sqrt({radicand!r}) underflows to 0")
    return eta


def eta_ratio(eta: float, prev: float) -> tuple[float, float]:
    """The step's exponent eta_{t-1} = ``prev`` and mixing ratio eta_t / eta_{t-1}.

    The first informative round takes eta_0 := eta_1; while every round so far
    is degenerate (both rates DEGENERATE_ETA) the step is (0.0, 1.0).
    """
    if math.isinf(prev):
        return (0.0, 1.0) if math.isinf(eta) else (eta, 1.0)
    return prev, eta / prev


def fsum_or_inf(values) -> float:
    """``math.fsum`` of contiguous nonnegative values, inf where their sum is past the largest double."""
    try:
        return math.fsum(memoryview(values))  # fsum reads a memoryview twice as fast as a list
    except OverflowError:
        return math.inf


def bound_var(w_budget, d_max, v_star):
    """Variance bound W*D + 2.4*sqrt(W*V*); arrays or scalars, elementwise."""
    return w_budget * d_max + 2.4 * np.sqrt(w_budget * v_star)


def bound_range(w_budget, d_max, sum_d_sq):
    """Range bound W*D + 1.2*sqrt(W*sum d^2); arrays or scalars, elementwise."""
    return w_budget * d_max + 1.2 * np.sqrt(w_budget * sum_d_sq)


def as_budget(w_budget) -> float:
    """Validate a class budget W: a finite real >= 1, not a bool."""
    return as_real(w_budget, "class budget", "a finite real >= 1", lambda w: w >= 1.0)


def gamma_from_budget(w_budget: float) -> float:
    """Closed-form gamma = sqrt(W / (2(e-2))) for a class budget W >= 1."""
    return math.sqrt(as_budget(w_budget) / TWO_E_MINUS_2)
