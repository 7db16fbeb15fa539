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
translations and global positive scalings of the losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvariantViolation,
    LearningRate,
    ProtocolError,
    RoundStats,
    as_gamma,
    as_loss_array,
    center_losses,
    eta_ratio,
    learning_rate,
    round_stats,
)
from .kernels import TransitionKernel

_SIMPLEX_TOL = 1e-12
_RATE_TOL = 1e-12


def _segment_logsumexp(values: np.ndarray, starts: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each contiguous segment; -inf where a segment is all -inf.

    Works in place on ``values``; its only input-sized temporary is the
    gathered segment maxima, which keeps large mixing steps off the allocator.
    """
    with np.errstate(invalid="ignore"):
        seg_max = np.maximum.reduceat(values, starts)
        values -= seg_max[seg]
        sums = np.add.reduceat(np.exp(values, out=values), starts)
        return np.where(np.isneginf(seg_max), -np.inf, seg_max + np.log(sums))


@dataclass(frozen=True)
class RoundDiagnostics:
    """Telemetry for the most recent observed round.

    ``max_neg_eta_phi`` uses the freshly computed rate (the quantity the
    analysis requires to stay <= 1); ``max_neg_exponent_phi`` uses the rate
    actually applied in the exponential step (the previous round's).  Both
    are logged because they need not coincide on a round whose range jumps.
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


class Aggregator:
    """Algorithmic engine over one transition kernel.

    A single instance is single-writer: ``observe`` mutates, ``probabilities``
    is read-only.  Distinct instances share nothing and may run in parallel.

    Parameters
    ----------
    kernel : TransitionKernel
    gamma : float
        Positive scale parameter of the adaptive learning rate.
    """

    def __init__(self, kernel: TransitionKernel, gamma: float):
        self.kernel = kernel
        self.gamma = as_gamma(gamma)
        self.num_experts = kernel.num_experts
        self._tables = kernel.tables
        with np.errstate(divide="ignore"):
            self._log_w = np.log(self._tables.init_weights)
        self._t = 0
        self._stats = RoundStats()
        self._prev_eta: LearningRate | None = None
        self._cached_p: np.ndarray | None = None
        self.last_round: RoundDiagnostics | None = None

    @property
    def t(self) -> int:
        """Number of observed rounds."""
        return self._t

    @property
    def stats(self) -> RoundStats:
        return self._stats

    @property
    def current_eta(self) -> LearningRate | None:
        """Rate after the last observed round (None before the first)."""
        return self._prev_eta

    def log_weights(self) -> np.ndarray:
        """Log class weights, in the kernel's class order."""
        return self._log_w.copy()

    def probabilities(self) -> np.ndarray:
        """Selection probabilities p_t: grouped class weights, normalized.

        Declares the round: the next ``observe`` call centers against exactly
        this vector.
        """
        if self._cached_p is None:
            self._cached_p = self._compute_probabilities()
        return self._cached_p.copy()

    def _compute_probabilities(self) -> np.ndarray:
        tb = self._tables
        log_wm = np.full(self.num_experts, -np.inf)
        lw = self._log_w.copy()
        log_wm[tb.present_experts] = _segment_logsumexp(lw, tb.expert_starts, tb.class_seg)
        top = log_wm.max()
        if not math.isfinite(top):
            raise InvariantViolation("total class weight vanished")
        p = np.exp(log_wm - top)
        p /= p.sum()
        if abs(float(p.sum()) - 1.0) > _SIMPLEX_TOL or float(p.min()) < 0.0:
            raise InvariantViolation("selection probabilities left the simplex")
        return p

    def sample(self, rng: np.random.Generator) -> int:
        """Draw an expert by inverse CDF in index order; deterministic per seed.

        The final bucket absorbs any rounding residue of the cumulative sums.
        """
        p = self.probabilities()
        u = float(rng.random())
        idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
        return min(idx, self.num_experts - 1)

    def observe(self, losses) -> None:
        """Feed back the round's raw loss vector and update class weights."""
        if self._cached_p is None:
            raise ProtocolError(
                "probabilities() must be called before each observe(); "
                "observing twice in one round is not allowed"
            )
        values = as_loss_array(losses, self.num_experts)
        p = self._cached_p

        phi = center_losses(values, p)
        stats = round_stats(phi, p, self._stats)
        eta_t = learning_rate(stats, self.gamma)

        prev = self._prev_eta if self._prev_eta is not None else eta_t
        if not prev.degenerate and not eta_t.degenerate:
            if eta_t.eta > prev.eta * (1.0 + _RATE_TOL):
                raise InvariantViolation(
                    f"round {stats.t}: learning rate increased "
                    f"({prev.eta!r} -> {eta_t.eta!r})"
                )
            # the formula is nonincreasing in exact arithmetic; clamp the
            # occasional last-ulp wobble of the compensated accumulator
            if eta_t.eta > prev.eta:
                eta_t = LearningRate(eta=prev.eta, gamma=eta_t.gamma)

        # the first informative round fixes the previous rate (eta_0 := eta_1)
        prev_eff = eta_t if prev.degenerate else prev
        exponent = 0.0 if prev_eff.degenerate else prev_eff.eta
        ratio = eta_ratio(eta_t, prev_eff)

        max_neg_eta_phi = 0.0 if eta_t.degenerate else float((-eta_t.eta * phi).max())
        if max_neg_eta_phi > 1.0 + _RATE_TOL:
            raise InvariantViolation(
                f"round {stats.t}: -eta*phi reached {max_neg_eta_phi!r} > 1"
            )

        tb = self._tables
        log_z = self._log_w - exponent * phi[tb.expert_of]
        contrib = ratio * log_z[tb.mix_src] + tb.mix_logw
        new_lw = np.full(tb.num_classes, -np.inf)
        new_lw[tb.mix_dst_ids] = _segment_logsumexp(contrib, tb.mix_starts, tb.mix_seg)
        top = new_lw.max()
        if not math.isfinite(top):
            raise InvariantViolation(f"round {stats.t}: class weights collapsed")
        self._log_w = new_lw - top

        self.last_round = RoundDiagnostics(
            t=stats.t,
            eta=eta_t.eta,
            exponent_eta=exponent,
            ratio=ratio,
            d=stats.d,
            v=stats.v,
            D=stats.D,
            V=stats.V,
            max_neg_eta_phi=max_neg_eta_phi,
            max_neg_exponent_phi=float((-exponent * phi).max()),
        )
        self._stats = stats
        self._prev_eta = eta_t
        self._t += 1
        self._cached_p = None

    def run_round(self, losses, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """Declare probabilities, sample one expert, observe the losses."""
        p = self.probabilities()
        choice = self.sample(rng)
        self.observe(losses)
        return p, choice
