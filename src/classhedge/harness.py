"""Experiment runner: loss generators, the game loop, regret and bound reporting.

No statistical model of the losses is assumed anywhere in the engine; the
generators here exist purely to exercise it, including adversarial streams
that plant an in-class competitor with a known per-round advantage.

Reported regret is measured against the expected loss sum(E_p l), which is
the quantity the second-order bounds control; the realized sampled loss is
reported alongside.  The bound columns use the closed-form budget/gamma
pairing, so they are guarantees only when gamma is set to "auto".
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .aggregator import Aggregator
from .core import ConfigError, InvariantViolation, bound_range, bound_var, gamma_from_budget
from .kernels import (
    ClassParams,
    TransitionKernel,
    best_competitor,
    best_prefix_losses,
    cyclic_kernel,
    fixed_kernel,
    switching_kernel,
)
from . import oracle

CSV_COLUMNS = (
    "t",
    "expected_loss",
    "realized_loss",
    "best_cumloss",
    "exp_regret",
    "real_regret",
    "bound_var",
    "bound_range",
    "eta",
    "D",
    "V",
)

KERNELS = ("fixed", "cyclic", "switching")
_GEN_PARAMS = {
    "constant": {"value": 0.0},
    "iid-uniform": {"offset": 0.0, "scale": 1.0},
    "gaussian-drift": {"drift": 0.05, "noise": 1.0, "spread": 1.0},
    "adversarial-cyclic": {"sigma": 1, "delta": 0.3, "start": 0},
    "adversarial-switching": {"delta": 0.3, "period": 50},
}
GENERATORS = tuple(_GEN_PARAMS)


def make_kernel(name: str, num_experts: int, params: dict | None = None) -> TransitionKernel:
    params = dict(params or {})
    if name == "fixed":
        kernel = fixed_kernel(num_experts)
    elif name == "cyclic":
        kernel = cyclic_kernel(num_experts)
    elif name == "switching":
        kernel = switching_kernel(num_experts, float(params.pop("switch_weight", 0.1)))
    else:
        raise ConfigError(f"unknown kernel {name!r}; choose from {KERNELS}")
    if params:
        raise ConfigError(f"kernel {name!r} does not take parameters {sorted(params)}")
    return kernel


def loss_generator(
    name: str, num_experts: int, params: dict | None, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Infinite stream of per-round loss vectors, deterministic given the rng.

    adversarial-cyclic plants a moving-rate trajectory whose expected
    per-round loss sits ``delta`` below every other expert, so the matching
    cyclic-class competitor is identifiably best; adversarial-switching does
    the same with a planted expert redrawn every ``period`` rounds.  The name
    and parameters are checked when called, before any loss is drawn.
    """
    if name not in _GEN_PARAMS:
        raise ConfigError(f"unknown loss generator {name!r}; choose from {GENERATORS}")
    defaults = _GEN_PARAMS[name]
    unknown = set(params or {}) - set(defaults)
    if unknown:
        raise ConfigError(f"generator {name!r} does not take parameters {sorted(unknown)}")
    values = {**defaults, **(params or {})}
    for key, value in values.items():
        if isinstance(defaults[key], int):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"generator parameter {key}={value!r} must be an integer")
        elif not math.isfinite(float(value)):
            raise ConfigError(f"generator parameter {key}={value!r} must be finite")
    if name == "adversarial-switching" and values["period"] < 1:
        raise ConfigError(f"period must be >= 1, got {values['period']}")
    return _loss_stream(name, num_experts, values, rng)


def _loss_stream(
    name: str, num_experts: int, params: dict, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    if name == "constant":
        value = float(params["value"])
        while True:
            yield np.full(num_experts, value)
    elif name == "iid-uniform":
        offset, scale = float(params["offset"]), float(params["scale"])
        while True:
            yield offset + scale * rng.random(num_experts)
    elif name == "gaussian-drift":
        drift, noise = float(params["drift"]), float(params["noise"])
        means = float(params["spread"]) * rng.standard_normal(num_experts)
        while True:
            yield means + noise * rng.standard_normal(num_experts)
            means = means + drift * rng.standard_normal(num_experts)
    elif name == "adversarial-cyclic":
        sigma, start, delta = params["sigma"], params["start"], float(params["delta"])
        t = 0
        while True:
            losses = rng.random(num_experts)
            losses[(start + sigma * t) % num_experts] -= delta
            yield losses
            t += 1
    else:  # adversarial-switching
        delta, period = float(params["delta"]), params["period"]
        t = 0
        planted = int(rng.integers(num_experts))
        while True:
            if t and t % period == 0:
                planted = int(rng.integers(num_experts))
            losses = rng.random(num_experts)
            losses[planted] -= delta
            yield losses
            t += 1


@dataclass
class ExperimentConfig:
    """Everything one run needs; every field maps to a CLI flag of the same name."""

    experts: int
    rounds: int
    kernel: str = "fixed"
    kernel_params: dict = field(default_factory=dict)
    gamma: float | str = "auto"
    loss_gen: str = "iid-uniform"
    loss_params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    debug_probs: bool = False

    def validate(self) -> None:
        for name in ("experts", "rounds", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.experts < 1:
            raise ConfigError(f"experts must be >= 1, got {self.experts}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.gamma != "auto":
            g = float(self.gamma)
            if not (math.isfinite(g) and g > 0):
                raise ConfigError(f"gamma must be 'auto' or a positive real, got {self.gamma!r}")


@dataclass
class RegretReport:
    """Per-round telemetry of one run; arrays are indexed by round - 1.

    ``best_cumloss[t]`` is the minimum in-class cumulative loss over rounds
    1..t+1 (one forward DP pass over the realized loss table), so the regret
    columns are anytime regrets against the best competitor of each prefix.
    ``V`` is the summed loss variance under the played probabilities, the
    V* statistic of the variance bound.
    """

    config: ExperimentConfig
    gamma: float
    w_budget: float | None
    expected_loss: np.ndarray
    realized_loss: np.ndarray
    best_cumloss: np.ndarray
    exp_regret: np.ndarray
    real_regret: np.ndarray
    bound_var: np.ndarray
    bound_range: np.ndarray
    eta: np.ndarray
    D: np.ndarray
    V: np.ndarray
    d: np.ndarray
    sum_d_sq: np.ndarray
    probs: np.ndarray
    losses: np.ndarray
    selections: np.ndarray
    best_path: tuple[ClassParams, ...]
    best_loss: float

    @property
    def rounds(self) -> int:
        return len(self.expected_loss)

    def final_bound_report(self) -> oracle.BoundReport:
        if self.w_budget is None:
            raise ConfigError("kernel declared no budget; bounds are undefined")
        return oracle.bound_report(self.w_budget, self.probs, self.losses)


def run_experiment(config: ExperimentConfig) -> RegretReport:
    """Run the full game loop and assemble the report.

    Any runtime-invariant breach inside the engine aborts the run with the
    offending round in the message.
    """
    config.validate()
    kernel = make_kernel(config.kernel, config.experts, config.kernel_params)
    w_budget = kernel.budget_bound(config.rounds)
    if config.gamma == "auto":
        if w_budget is None:
            raise ConfigError(
                f"kernel {config.kernel!r} declares no budget; gamma='auto' needs one"
            )
        gamma = gamma_from_budget(w_budget)
    else:
        gamma = float(config.gamma)

    seeds = np.random.SeedSequence(int(config.seed)).spawn(2)
    loss_rng = np.random.default_rng(seeds[0])
    sample_rng = np.random.default_rng(seeds[1])
    stream = loss_generator(config.loss_gen, config.experts, config.loss_params, loss_rng)

    agg = Aggregator(kernel, gamma)
    rounds, experts = config.rounds, config.experts
    probs = np.empty((rounds, experts))
    losses = np.empty((rounds, experts))
    selections = np.empty(rounds, dtype=np.intp)
    expected = np.empty(rounds)
    realized = np.empty(rounds)
    eta = np.empty(rounds)
    big_d = np.empty(rounds)
    big_v = np.empty(rounds)
    small_d = np.empty(rounds)

    for t in range(rounds):
        vec = next(stream)
        p, choice = agg.run_round(vec, sample_rng)
        probs[t] = p
        losses[t] = vec
        selections[t] = choice
        expected[t] = float(p @ vec)
        realized[t] = float(vec[choice])
        diag = agg.last_round
        eta[t] = diag.eta
        big_d[t] = diag.D
        big_v[t] = diag.V
        small_d[t] = diag.d

    best_cum = best_prefix_losses(kernel, losses)
    best_path, best_loss = best_competitor(kernel, losses)
    if abs(best_cum[-1] - best_loss) > 1e-9 * max(1.0, abs(best_loss)):
        raise InvariantViolation(
            f"prefix DP ({best_cum[-1]!r}) and path DP ({best_loss!r}) disagree"
        )

    cum_expected = np.cumsum(expected)
    cum_realized = np.cumsum(realized)
    sum_d_sq = np.cumsum(small_d * small_d)
    w = math.nan if w_budget is None else w_budget  # no budget: NaN bound columns

    report = RegretReport(
        config=config,
        gamma=gamma,
        w_budget=w_budget,
        expected_loss=expected,
        realized_loss=realized,
        best_cumloss=best_cum,
        exp_regret=cum_expected - best_cum,
        real_regret=cum_realized - best_cum,
        bound_var=bound_var(w, big_d, big_v),
        bound_range=bound_range(w, big_d, sum_d_sq),
        eta=eta,
        D=big_d,
        V=big_v,
        d=small_d,
        sum_d_sq=sum_d_sq,
        probs=probs,
        losses=losses,
        selections=selections,
        best_path=best_path,
        best_loss=best_loss,
    )
    if config.out:
        emit_csv(report, config.out)
        if config.debug_probs:
            emit_probs_csv(report, probs_csv_path(config.out))
    return report


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_csv(report: RegretReport, path) -> None:
    """Write the per-round report: header plus one row per round.

    Floats carry 17 significant digits so a round-trip parse is exact; the
    byte stream is a pure function of the report.
    """
    path = Path(path)
    # every column after "t" is the report array of the same name
    columns = [getattr(report, name) for name in CSV_COLUMNS[1:]]
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for t in range(report.rounds):
                fh.write(",".join([str(t + 1)] + [_fmt(c[t]) for c in columns]) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def probs_csv_path(out_path) -> Path:
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + ".probs.csv")


def emit_probs_csv(report: RegretReport, path) -> None:
    """Debug telemetry: played probabilities and raw losses per round."""
    path = Path(path)
    experts = report.probs.shape[1]
    header = ["t"] + [f"{kind}_{m}" for kind in "pl" for m in range(experts)]
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for t in range(report.rounds):
                cells = [str(t + 1)]
                cells += [_fmt(x) for x in report.probs[t]]
                cells += [_fmt(x) for x in report.losses[t]]
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write telemetry to {path}: {exc}") from exc


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Parse a CSV written by this module back into named float columns."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(cell) for cell in row] for row in rows])
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"{path} is not a rectangular CSV with {len(header)} columns")
    return {name: data[:, i] for i, name in enumerate(header)}


# --- sweeps ---------------------------------------------------------------


def _sweep_task(args: tuple[ExperimentConfig, Path]) -> tuple[int, float, float, float]:
    config, out_path = args
    report = run_experiment(replace(config, out=str(out_path)))
    return (
        int(config.seed),
        float(report.exp_regret[-1]),
        float(report.bound_var[-1]),
        float(report.bound_range[-1]),
    )


def run_sweep(
    base: ExperimentConfig,
    seeds: list[int],
    out_dir,
    jobs: int | None = None,
) -> Path:
    """Run one experiment per seed in parallel and merge a summary CSV.

    Each seed runs on its own engine state and writes its own per-round CSV;
    the merge is a single-threaded final step.  Returns the summary path.
    """
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [
        (replace(base, seed=s, out=None, debug_probs=False), out_dir / f"seed_{s}.csv")
        for s in seeds
    ]
    workers = jobs or min(len(seeds), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(task) for task in tasks]

    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        fh.write("seed,exp_regret,bound_var,bound_range,within_bound\n")
        for seed, regret, b_var, b_range in sorted(results):
            ok = int(regret <= b_var) if math.isfinite(b_var) else 0
            fh.write(
                f"{seed},{_fmt(regret)},{_fmt(b_var)},{_fmt(b_range)},{ok}\n"
            )
    return summary


# --- desk-scale verification (CLI `verify`) --------------------------------


def run_verification(seed: int = 0, emit=print) -> bool:
    """Cross-check the engine against the independent oracles at desk scale.

    Prints one PASS/FAIL line per check and returns overall success.
    """
    rng = np.random.default_rng(seed)
    ok = True

    def check(label: str, passed: bool) -> None:
        nonlocal ok
        ok = ok and passed
        emit(f"{'PASS' if passed else 'FAIL'}  {label}")

    worst = 0.0
    for _ in range(20):
        experts = int(rng.integers(2, 6))
        rounds = int(rng.integers(1, 51))
        table = rng.random((rounds, experts))
        gamma = float(rng.uniform(0.3, 3.0))
        reference = oracle.ewa_reference(table, gamma)
        agg = Aggregator(fixed_kernel(experts), gamma)
        for t in range(rounds):
            p = agg.probabilities()
            worst = max(worst, float(np.abs(p - reference[t]).max()))
            agg.observe(table[t])
        worst = max(worst, float(np.abs(agg.probabilities() - reference[rounds]).max()))
    check(
        f"fixed kernel + adaptive rate matches closed-form weighting (max dev {worst:.2e})",
        worst <= 1e-9,
    )

    worst = 0.0
    for _ in range(20):
        experts = int(rng.integers(1, 5))
        rounds = int(rng.integers(1, 33))
        table = rng.standard_normal((rounds, experts))
        gamma = float(rng.uniform(0.3, 3.0))
        kernel = cyclic_kernel(experts)
        reference = oracle.trajectory_reference(kernel, table, gamma)
        agg = Aggregator(kernel, gamma)
        for t in range(rounds):
            agg.probabilities()
            worst = max(worst, float(np.abs(agg.log_weights() - reference[t]).max()))
            agg.observe(table[t])
        worst = max(worst, float(np.abs(agg.log_weights() - reference[rounds]).max()))
    check(f"cyclic kernel matches per-trajectory recursion (max dev {worst:.2e})", worst <= 1e-9)

    agree = True
    for _ in range(30):
        experts = int(rng.integers(1, 4))
        rounds = int(rng.integers(1, 7))
        table = rng.random((rounds, experts))
        kernels = [fixed_kernel(experts), cyclic_kernel(experts)]
        if experts >= 2:
            kernels.append(switching_kernel(experts, 0.2))
        for kernel in kernels:
            path, loss = best_competitor(kernel, table)
            truth = oracle.exhaustive_best(kernel, table)
            agree = agree and path == truth.classes and loss == truth.cum_loss
    check("competitor DP equals exhaustive enumeration", agree)

    report = run_experiment(
        ExperimentConfig(
            experts=4,
            rounds=400,
            kernel="cyclic",
            loss_gen="adversarial-cyclic",
            seed=seed,
        )
    )
    bounds = report.final_bound_report()
    check(
        "variance statistic is at most a quarter of the squared ranges",
        bounds.v_star <= bounds.sum_d_sq / 4.0 + 1e-12,
    )
    check(
        "expected regret stays below the variance bound",
        bool(np.all(report.exp_regret <= report.bound_var + 1e-9)),
    )
    return ok
