"""Experiment runner: loss generators, the game loop, regret and bound reporting.

No statistical model of the losses is assumed anywhere in the engine; the
generators here exist purely to exercise it, including adversarial streams
that plant an in-class competitor with a known per-round advantage.

Reported regret is measured against the expected loss sum(E_p l), which is
the quantity the second-order bounds control; each round's term is the mean
the engine centered the losses by.  The realized sampled loss is reported
alongside.  The bound columns use the closed-form budget/gamma
pairing, so they are guarantees only when gamma is set to "auto".
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path

import numpy as np

from .aggregator import Aggregator, RoundDiagnostics
from .core import ConfigError, InvariantViolation, as_gamma, gamma_from_budget
from .core import MAX_ROUNDS, as_instance, as_integer, as_real, bound_range, bound_var
from .kernels import SWITCH_WEIGHT_RULE, ClassParams, TransitionKernel, best_competitor, best_prefix_losses
from .kernels import cyclic_kernel, fixed_kernel, switching_kernel
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


def _constant(num_experts, rng, value):
    while True:
        yield np.full(num_experts, value)


def _iid_uniform(num_experts, rng, offset, scale):
    while True:
        yield offset + scale * rng.random(num_experts)


def _gaussian_drift(num_experts, rng, drift, noise, spread):
    means = spread * rng.standard_normal(num_experts)
    while True:
        yield means + noise * rng.standard_normal(num_experts)
        means = means + drift * rng.standard_normal(num_experts)


def _adversarial_cyclic(num_experts, rng, sigma, delta, start):
    for t in count():
        losses = rng.random(num_experts)
        losses[(start + sigma * t) % num_experts] -= delta
        yield losses


def _adversarial_switching(num_experts, rng, delta, period):
    for t in count():
        if t % period == 0:
            planted = int(rng.integers(num_experts))
        losses = rng.random(num_experts)
        losses[planted] -= delta
        yield losses


# Every built-in kernel and loss generator: (kind, the kind as parameter messages name it, {name:
# (builder, fewest experts, parameter defaults, parameter rules)}).  A parameter's value has its
# default's type, int or float, and meets its rule, if any: keyword arguments of that type's gate.
_KERNELS = ("kernel", "kernel", {
    "fixed": (fixed_kernel, 1, {}, {}),
    "cyclic": (cyclic_kernel, 1, {}, {}),
    "switching": (switching_kernel, 2, {"switch_weight": 0.1}, {"switch_weight": SWITCH_WEIGHT_RULE}),
})
_GENERATORS = ("loss generator", "generator", {
    "constant": (_constant, 1, {"value": 0.0}, {}),
    "iid-uniform": (_iid_uniform, 1, {"offset": 0.0, "scale": 1.0}, {}),
    "gaussian-drift": (_gaussian_drift, 1, {"drift": 0.05, "noise": 1.0, "spread": 1.0}, {}),
    "adversarial-cyclic": (_adversarial_cyclic, 1, {"sigma": 1, "delta": 0.3, "start": 0}, {}),
    "adversarial-switching":
        (_adversarial_switching, 1, {"delta": 0.3, "period": 50}, {"period": {"minimum": 1}}),
})
KERNELS = tuple(_KERNELS[2])
GENERATORS = tuple(_GENERATORS[2])


def _checked(table: tuple, name, num_experts, params) -> tuple[Callable, dict]:
    """The builder of ``table``'s entry ``name`` and its parameters, checked and defaulted,
    building nothing; any fault is a ConfigError, too few experts for the entry included."""
    kind, short, entries = table
    if not isinstance(name, str) or name not in entries:
        raise ConfigError(f"unknown {kind} {name!r}; choose from {tuple(entries)}")
    build, min_experts, defaults, rules = entries[name]
    as_integer(num_experts, "num_experts", min_experts)
    params = {} if params is None else params
    if not (isinstance(params, Mapping) and all(isinstance(key, str) for key in params)):
        raise ConfigError(f"{short} {name!r} parameters must be a mapping of names to values, got {params!r}")
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"{short} {name!r} does not take parameters {unknown}")
    values = {}
    for key, default in defaults.items():
        value, rule = params.get(key, default), rules.get(key, {})
        # a parameter with a rule is named alone, as switching_kernel names switch_weight
        what = key if rule else f"{short} parameter {key}={value!r}"
        values[key] = (as_real if isinstance(default, float) else as_integer)(value, what, **rule)
    return build, values


def make_kernel(name: str, num_experts: int, params: dict | None = None) -> TransitionKernel:
    build, values = _checked(_KERNELS, name, num_experts, params)
    return build(num_experts, **values)


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
    build, values = _checked(_GENERATORS, name, num_experts, params)
    return build(num_experts, as_instance(rng, np.random.Generator, "rng"), **values)


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
    out: str | os.PathLike | None = None
    debug_probs: bool = False

    def validate(self) -> None:
        for name, minimum, maximum in (("experts", 1, None), ("rounds", 1, MAX_ROUNDS), ("seed", 0, None)):
            as_integer(getattr(self, name), name, minimum, maximum)
        if int(self.seed) >= 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.gamma != "auto":
            as_gamma(self.gamma)
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ConfigError(f"out must be a path, got {self.out!r}")
        if not isinstance(self.debug_probs, bool):
            raise ConfigError(f"debug_probs must be true or false, got {self.debug_probs!r}")
        _checked(_KERNELS, self.kernel, self.experts, self.kernel_params)
        _checked(_GENERATORS, self.loss_gen, self.experts, self.loss_params)


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
    w_budget: float
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


def run_experiment(config: ExperimentConfig) -> RegretReport:
    """Run the full game loop and assemble the report.

    Any runtime-invariant breach inside the engine aborts the run with the
    offending round in the message.
    """
    as_instance(config, ExperimentConfig, "config").validate()
    kernel = make_kernel(config.kernel, config.experts, config.kernel_params)
    w_budget = kernel.budget_bound(config.rounds)
    gamma = gamma_from_budget(w_budget) if config.gamma == "auto" else float(config.gamma)

    seeds = np.random.SeedSequence(int(config.seed)).spawn(2)
    loss_rng = np.random.default_rng(seeds[0])
    sample_rng = np.random.default_rng(seeds[1])
    stream = loss_generator(config.loss_gen, config.experts, config.loss_params, loss_rng)

    agg = Aggregator(kernel, gamma)
    rounds, experts = config.rounds, config.experts
    probs = np.empty((rounds, experts))
    losses = np.empty((rounds, experts))
    selections = np.empty(rounds, dtype=np.intp)
    # one record of last_round per round: a tuple stores into a record faster than into a 2-D row
    stats = np.empty(rounds, dtype=[(name, float) for name in RoundDiagnostics._fields])
    for t in range(rounds):
        losses[t] = next(stream)
        probs[t], selections[t] = agg.run_round(losses[t], sample_rng)
        stats[t] = agg.last_round

    best_cum = best_prefix_losses(kernel, losses)
    best_path, best_loss = best_competitor(kernel, losses)
    if abs(best_cum[-1] - best_loss) > 1e-9 * max(1.0, abs(best_loss)):
        raise InvariantViolation(
            f"prefix DP ({best_cum[-1]!r}) and path DP ({best_loss!r}) disagree"
        )

    realized = losses[np.arange(rounds), selections]
    # squares summing past the largest double give inf, as in oracle.bound_report
    with np.errstate(over="ignore"):
        sum_d_sq = np.cumsum(stats["d"] * stats["d"])
        var_bound = bound_var(w_budget, stats["D"], stats["V"])
        range_bound = bound_range(w_budget, stats["D"], sum_d_sq)

    report = RegretReport(
        config=config,
        gamma=gamma,
        w_budget=w_budget,
        expected_loss=stats["expected_loss"],
        realized_loss=realized,
        best_cumloss=best_cum,
        exp_regret=np.cumsum(stats["expected_loss"]) - best_cum,
        real_regret=np.cumsum(realized) - best_cum,
        bound_var=var_bound,
        bound_range=range_bound,
        eta=stats["eta"],
        D=stats["D"],
        V=stats["V"],
        d=stats["d"],
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


def _write_csv(path, header, table, fmt="%.17g") -> None:
    """Header line, then one line per row, as ``np.savetxt`` writes them: 17 significant
    digits make a parse exact, and a whole float such as ``t`` prints as an integer.  ``%``
    formats ``tolist()`` values, faster than numpy scalars, a block of rows at a time."""
    line = ",".join([fmt] * table.shape[1] if isinstance(fmt, str) else fmt) + "\n"
    width = max(1, 1024 // table.shape[1])  # about 1,024 values as Python objects at once
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for lo in range(0, len(table), width):
                fh.write("".join([line % tuple(row) for row in table[lo:lo + width].tolist()]))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_csv(report: RegretReport, path) -> None:
    """Write the per-round report: header plus one row per round."""
    as_instance(report, RegretReport, "report")
    # every column after "t" is the report array of the same name
    columns = [np.arange(1, report.rounds + 1)] + [getattr(report, c) for c in CSV_COLUMNS[1:]]
    _write_csv(path, CSV_COLUMNS, np.column_stack(columns))


def probs_csv_path(out_path) -> Path:
    out_path = Path(out_path)
    return out_path.with_name(out_path.stem + ".probs.csv")


def _probs_columns(experts: int) -> list[str]:
    return [f"{kind}_{m}" for kind in "pl" for m in range(experts)]


def emit_probs_csv(report: RegretReport, path) -> None:
    """Debug telemetry: played probabilities and raw losses per round."""
    as_instance(report, RegretReport, "report")
    header = ["t"] + _probs_columns(report.probs.shape[1])
    table = np.column_stack([np.arange(1, report.rounds + 1), report.probs, report.losses])
    _write_csv(path, header, table)


def read_csv_columns(path, required=()) -> dict[str, np.ndarray]:
    """Parse a CSV written by this module back into named float columns; a
    ``required`` column the header lacks is a ConfigError."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # a header-only file warns, then is rejected below as an empty table
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    if len(data) == 0 or data.shape[1] != len(header):
        raise ValueError(f"{path} needs at least one row of {len(header)} numbers under its header")
    missing = [name for name in required if name not in header]
    if missing:
        raise ConfigError(f"{path} has no column(s) {', '.join(missing)}")
    return {name: data[:, i] for i, name in enumerate(header)}


def read_probs_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The (T, M) probabilities and losses of an ``emit_probs_csv`` file, unchecked."""
    with open(path) as fh:
        experts = max(1, sum(name.startswith("p_") for name in fh.readline().strip().split(",")))
    names = _probs_columns(experts)
    columns = read_csv_columns(path, names)
    table = np.column_stack([columns[name] for name in names])
    return table[:, :experts], table[:, experts:]


# --- sweeps ---------------------------------------------------------------


def _sweep_task(config: ExperimentConfig) -> tuple[int, float, float, float, int]:
    """One seed's summary row: seed, final regret and bounds, within_bound."""
    report = run_experiment(config)
    regret, bound = float(report.exp_regret[-1]), float(report.bound_var[-1])
    return int(config.seed), regret, bound, float(report.bound_range[-1]), int(regret <= bound)


def run_sweep(
    base: ExperimentConfig,
    seeds: list[int],
    out_dir,
    jobs: int | None = None,
) -> Path:
    """Run one experiment per seed in parallel and merge a summary CSV.

    Each seed runs on its own engine state and writes its own per-round CSV;
    the merge is a single-threaded final step.  Returns the summary path.
    ``jobs`` (default: the CPU count) caps the worker processes, of which
    there are never more than seeds; one worker runs the seeds in-process.
    """
    as_instance(base, ExperimentConfig, "base")
    if not isinstance(seeds, Iterable):
        raise ConfigError(f"seeds must be a sequence of integers, got {seeds!r}")
    seeds = [as_integer(s, "seed") for s in seeds]
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"sweep seeds must be distinct, got {seeds}")
    workers = (os.cpu_count() or 1) if jobs is None else as_integer(jobs, "jobs", 1)
    # a process pool starts all of its workers up front, busy or not
    workers = min(workers, len(seeds))
    out_dir = Path(out_dir)
    tasks = [replace(base, seed=s, out=out_dir / f"seed_{s}.csv", debug_probs=False) for s in seeds]
    for task in tasks:  # refused here, before any file or worker is made
        task.validate()
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        # imported here: the pool machinery costs ~2 MB of RSS that online use never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(task) for task in tasks]

    summary = out_dir / "summary.csv"
    header = ("seed", "exp_regret", "bound_var", "bound_range", "within_bound")
    # objects, not floats: a seed may need all 64 bits
    table = np.array(sorted(results), dtype=object)
    _write_csv(summary, header, table, fmt=("%d", "%.17g", "%.17g", "%.17g", "%d"))
    return summary


# --- desk-scale verification (CLI `verify`) --------------------------------


def _random_kernel(kind: int, experts: int, rng: np.random.Generator) -> TransitionKernel:
    """Kind 0 to 3 of the oracle checks: a fixed, a cyclic, a switching kernel (w from
    1e-3 to 0.9), or a dense one with two classes per expert and about half its entries 0."""
    if kind < 2:
        return (fixed_kernel, cyclic_kernel)[kind](experts)
    if kind == 2:
        return switching_kernel(experts, float(rng.uniform(1e-3, 0.9)))
    classes = [(e, c) for e in range(experts) for c in (0, 1)]
    k = len(classes)
    matrix = rng.random((k, k)) * (rng.random((k, k)) < 0.5)
    matrix[np.arange(k), rng.integers(0, k, k)] += 1.0  # no row all zero
    return TransitionKernel.from_dense("dense", experts, classes, matrix / matrix.sum(axis=1)[:, None])


def _log_dev(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| over finite log weights; inf unless both are finite at the same places."""
    finite = np.isfinite(got)
    if not np.array_equal(finite, np.isfinite(want)):
        return np.inf
    return float(np.abs(got[finite] - want[finite]).max(initial=0.0))


def run_verification(seed: int = 0, emit=print) -> bool:
    """Cross-check the engine against the independent oracles at desk scale.

    Prints one PASS/FAIL line per check and returns overall success.
    """
    rng = np.random.default_rng(as_integer(seed, "seed", 0))
    ok = True

    def check(label: str, passed: bool) -> None:
        nonlocal ok
        ok = ok and passed
        emit(f"{'PASS' if passed else 'FAIL'}  {label}")

    worst_p = worst_w = 0.0
    for run in range(80):
        kind = run % 4
        experts = int(rng.integers(2 if kind == 2 else 1, 6))
        rounds = int(rng.integers(1, 51))
        table = rng.standard_normal((rounds, experts)) * float(rng.uniform(0.2, 5.0))
        gamma = float(rng.uniform(0.3, 3.0))
        kernel = _random_kernel(kind, experts, rng)
        probs = oracle.ewa_reference(table, gamma) if kind == 0 else None
        reference = oracle.trajectory_reference(kernel, table, gamma)
        agg = Aggregator(kernel, gamma)
        for t in range(rounds + 1):
            p = agg.probabilities()
            if kind == 0:
                worst_p = max(worst_p, float(np.abs(p - probs[t]).max()))
            worst_w = max(worst_w, _log_dev(agg.log_weights(), reference[t]))
            if t < rounds:
                agg.observe(table[t])
    check(
        f"fixed kernel + adaptive rate matches closed-form weighting (max dev {worst_p:.2e})",
        worst_p <= 1e-9,
    )
    check(
        f"fixed, cyclic, switching and dense kernels match the forward recursion "
        f"(max dev {worst_w:.2e})",
        worst_w <= 1e-9,
    )

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
    bounds = oracle.bound_report(report.w_budget, report.probs, report.losses)
    check(
        "variance statistic is at most a quarter of the squared ranges",
        bounds.v_star <= bounds.sum_d_sq / 4.0 + 1e-12,
    )
    check(
        "expected regret stays below the variance bound",
        bool(np.all(report.exp_regret <= report.bound_var + 1e-9)),
    )
    return ok
