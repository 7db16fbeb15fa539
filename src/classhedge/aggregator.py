"""The online expert-selection engine.

Maintains log-domain weights over a kernel's equivalence classes.  Each round
the caller declares selection probabilities, optionally samples an expert,
and then feeds back the raw loss vector.  The engine centers the losses by
its own expected loss, refreshes the adaptive learning rate, applies the
exponential performance step with the previous rate, and mixes weights
through the kernel's transition map with the rate-ratio exponent:

    z[c]  = w[c] * exp(-eta_prev * phi[expert(c)])
    w'[c'] = sum_c  T(c' | c) * z[c] ** (eta / eta_prev)

All sums are grouped log-sum-exp; weights are renormalized to max-log 0
every round.  The resulting probability sequence is invariant to per-round
translations and global positive scalings of the losses.  The kernel's
transition structure computes the mixing sum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    DEGENERATE_ETA,
    InvariantViolation,
    ProtocolError,
    as_gamma,
    as_instance,
    as_loss_array,
    center_losses,
    eta_ratio,
    learning_rate,
    round_stats,
)
from .kernels import TransitionKernel

_SIMPLEX_TOL = 1e-12
_RATE_TOL = 1e-12


class RoundDiagnostics(NamedTuple):
    """Telemetry for the most recent observed round.

    ``max_neg_eta_phi`` uses the freshly computed rate (the quantity the
    analysis requires to stay <= 1); ``max_neg_exponent_phi`` uses the rate
    actually applied in the exponential step (the previous round's).  Both
    are logged because they need not coincide on a round whose range jumps.
    ``expected_loss`` is the mean the losses were centered by: p . l, kept
    inside [min l, max l].  ``eta`` is DEGENERATE_ETA (inf) while every round
    so far was constant across experts.
    """

    t: int
    eta: float
    exponent_eta: float
    ratio: float
    d: float
    v: float
    D: float
    V: float
    max_neg_eta_phi: float
    max_neg_exponent_phi: float
    expected_loss: float


class Aggregator:
    """Algorithmic engine over one transition kernel.

    A single instance is single-writer: ``observe`` mutates, ``probabilities``
    is read-only.  Distinct instances hold no common mutable state and may run
    in parallel.

    The running statistics are plain floats: the range D, the variance sum V
    with its compensation carry, and the last rate eta (DEGENERATE_ETA until
    a round is not constant across experts).  ``t`` counts observed rounds.

    Parameters
    ----------
    kernel : TransitionKernel
    gamma : float
        Positive scale parameter of the adaptive learning rate.
    """

    def __init__(self, kernel: TransitionKernel, gamma: float):
        self.kernel = as_instance(kernel, TransitionKernel, "kernel")
        self.gamma = as_gamma(gamma)
        self.num_experts = kernel.num_experts
        with np.errstate(divide="ignore"):
            self._log_w = np.log(kernel.init_weights)
        self.t = 0
        self._D = self._V = self._carry = 0.0
        self._eta = DEGENERATE_ETA
        self._cached_p: np.ndarray | None = None
        self.last_round: RoundDiagnostics | None = None

    def log_weights(self) -> np.ndarray:
        """Log class weights, in the kernel's class order."""
        return self._log_w.copy()

    def probabilities(self) -> np.ndarray:
        """Selection probabilities p_t: grouped class weights, normalized.

        Declares the round: the next ``observe`` call centers against exactly
        this vector.
        """
        return self._declared().copy()

    def _declared(self) -> np.ndarray:
        """The round's probability vector, computed once and cached until ``observe``."""
        if self._cached_p is not None:
            return self._cached_p
        log_wm = self.kernel._expert_log_weights(self._log_w)
        # each reduction on the round path is picked by position (x.item(x.argmax()))
        # or called as a ufunc method: the same bits without numpy's Python wrappers
        top = log_wm.item(log_wm.argmax())
        if not math.isfinite(top):
            raise InvariantViolation("total class weight vanished")
        p = log_wm - top
        np.exp(p, out=p)
        p /= np.add.reduce(p)
        # exp >= 0, so only the sum can leave the simplex; NaN fails this test.  The sum is
        # pairwise: a running sum in index order drifts past the tolerance near M = 1e5
        if not abs(float(np.add.reduce(p)) - 1.0) <= _SIMPLEX_TOL:
            raise InvariantViolation("selection probabilities left the simplex")
        self._cached_p = p
        return p

    def sample(self, rng: np.random.Generator) -> int:
        """Draw an expert by inverse CDF in index order; deterministic per seed.

        The final bucket absorbs any rounding residue of the cumulative sums.
        """
        cdf = np.add.accumulate(self._declared())
        try:  # free unless it raises, where a gate would be a call every round
            draw = rng.random()
        except (AttributeError, TypeError):
            as_instance(rng, np.random.Generator, "rng")  # an rng that is no Generator: ConfigError
            raise
        idx = int(cdf.searchsorted(draw, side="right"))
        return min(idx, self.num_experts - 1)

    def observe(self, losses) -> None:
        """Feed back the round's raw loss vector and update class weights."""
        p = self._cached_p
        if p is None:
            raise ProtocolError(
                "probabilities() must be called before each observe(); "
                "observing twice in one round is not allowed"
            )
        values, lo, hi = as_loss_array(losses, self.num_experts)
        if values.ndim != 1:
            raise ValueError(f"observe() takes one round's losses, not shape {values.shape}")
        t = self.t + 1

        mean, phi, d, v = center_losses(values, p, lo, hi, t)
        D, V, self._carry = round_stats(d, v, self._D, self._V, self._carry)
        eta = learning_rate(D, V, self.gamma, t)
        prev = self._eta
        if prev < eta < DEGENERATE_ETA:
            if eta > prev * (1.0 + _RATE_TOL):
                raise InvariantViolation(f"round {t}: learning rate increased ({prev!r} -> {eta!r})")
            # the formula is nonincreasing in exact arithmetic; clamp the
            # occasional last-ulp wobble of the compensated accumulator
            eta = prev
        exponent, ratio = eta_ratio(eta, prev)

        # -c*phi is nonincreasing in phi for c >= 0, and so is its rounding:
        # the largest entry of fl(-c*phi) is fl(-c*min phi), and min phi is lo - mean
        phi_min = lo - mean
        max_neg_eta_phi = 0.0 if math.isinf(eta) else -eta * phi_min
        if max_neg_eta_phi > 1.0 + _RATE_TOL:
            raise InvariantViolation(f"round {t}: -eta*phi reached {max_neg_eta_phi!r} > 1")

        kernel = self.kernel
        scores = phi if kernel._one_per_expert else phi[kernel._expert_of]
        new_lw = kernel._structure.mix(self._log_w - exponent * scores, ratio)
        top = new_lw.item(new_lw.argmax())
        if not math.isfinite(top):
            raise InvariantViolation(f"round {t}: class weights collapsed")
        new_lw -= top
        self._log_w = new_lw

        # tuple.__new__ skips the NamedTuple's own __new__, a Python call of about 0.5 us
        self.last_round = tuple.__new__(RoundDiagnostics, (
            t, eta, exponent, ratio, d, v, D, V, max_neg_eta_phi, -exponent * phi_min, mean
        ))
        self._D, self._V, self._eta = D, V, eta
        self.t = t
        self._cached_p = None

    def run_round(self, losses, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """Declare probabilities, sample one expert, observe the losses.

        Returns the declared vector itself, not a copy: the engine drops it at
        ``observe`` and never writes it again.
        """
        p = self._declared()
        choice = self.sample(rng)
        self.observe(losses)
        return p, choice
