#!/usr/bin/env python3
"""Benchmark of classhedge: online round latency, sweep throughput, traced layers.

    python3 perfbench/run.py --workload online-m8 --seed 0 --seconds 10 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it sits
in and drives it only through its public functions.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import classhedge
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import classhedge from {src}: {exc}")
    if Path(classhedge.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: classhedge was imported from {classhedge.__file__}, not {src}")
    return classhedge


ch = _import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True)
class Online:
    """README quick-start loop, one ``run_round`` per round, games back to back.

    Each game sets up its own kernel and engine, generates its loss table
    from the seed, plays ``rounds`` rounds and runs the report phase.
    """

    kernel: str
    experts: int
    loss_gen: str
    rounds: int
    window: int  # rounds per latency window
    kernel_params: dict = field(default_factory=dict)
    trajectory_check: bool = False  # the per-trajectory oracle needs a permutation kernel
    warmup_rounds: int = 200


@dataclass(frozen=True)
class Sweep:
    """``run_sweep`` over blocks of consecutive seeds, one block per call."""

    kernel: str
    experts: int
    loss_gen: str
    rounds: int
    window: int
    seeds_per_block: int
    jobs: int
    kernel_params: dict = field(default_factory=dict)
    warmup_rounds: int = 200


# Games are short so that a run holds many of them: the report steps are
# timed once per game, and each step's fastest game is reported.  At M=512 a
# game's report costs about as much as its rounds do.
# sweep-m8 is the acceptance-suite sweep configuration with T=2,000 instead
# of 10^4, so that a run holds dozens of blocks behind its throughput
# percentile rather than a handful.
WORKLOADS = {
    "online-m8": Online(
        "cyclic", 8, "adversarial-cyclic", rounds=2_000, window=250, trajectory_check=True
    ),
    "online-m512": Online(
        "switching",
        512,
        "adversarial-switching",
        rounds=100,
        window=20,
        kernel_params={"switch_weight": 0.1},
        warmup_rounds=20,
    ),
    "sweep-m8": Sweep(
        "cyclic", 8, "adversarial-cyclic", rounds=2_000, window=250, seeds_per_block=2, jobs=2
    ),
}

# Rounds behind the latency percentiles: ten samples above p99.
LATENCY_SAMPLES = 1_000
# A window this much slower per round than the fastest one ran while
# another tenant held the host (see least_disturbed).
UNDISTURBED_TOLERANCE = 0.3
# A sweep block keeps both CPUs busy, and there contention between them is
# the normal state, not a disturbance: block throughput is the rate that
# four blocks in five reach or beat.
BLOCK_RATE_PERCENTILE = 20
# The next timed set-up is due this long after the last one, or ten times
# its duration if longer, so that set-ups take at most a tenth of a run.
SETUP_INTERVAL_NS = 1_000_000_000

END_TO_END_UNITS = {
    "round_us_p50": "us",
    "round_us_p99": "us",
    "rounds_per_s": "1/s",
    "report_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """Games attempted and failed; a game fails if it raises or a check fails."""

    attempted: int = 0
    failed: int = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)


@dataclass
class Phase:
    """What one timed phase measured.

    ``windows`` hold consecutive rounds of one game, about 20 ms of them:
    (rounds, wall ns, latencies in ns).  ``blocks`` are sweep calls:
    (rounds, wall ns).  ``timed_ns`` sums the round loops (online) or the
    ``run_sweep`` calls (sweep).
    """

    rounds: int = 0
    timed_ns: int = 0
    windows: list[tuple[int, int, np.ndarray]] = field(default_factory=list)
    blocks: list[tuple[int, int]] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    report_ns: list[tuple[int, ...]] = field(default_factory=list)  # per game, per report step
    worker_rss_kb: int = 0  # largest sum of pool-worker peaks over the blocks
    block_pids: list[list[int]] = field(default_factory=list)  # pool workers of each block

    def rounds_per_s(self) -> float:
        if self.blocks:
            rates = [rounds / ns for rounds, ns in self.blocks]
            return 1e9 * float(np.percentile(rates, BLOCK_RATE_PERCENTILE))
        chosen = least_disturbed(self.windows, LATENCY_SAMPLES)
        return 1e9 * sum(u[0] for u in chosen) / sum(u[1] for u in chosen)


class SetUps:
    """What a user runs before round 1, timed every second or so.

    The set-up is make_kernel, gamma_from_budget and Aggregator(...).  Games
    between two set-ups share its kernel (kernels are immutable) and each get
    a fresh Aggregator.  Spreading the timed set-ups over the run lets
    setup_s take the least-disturbed one.
    """

    def __init__(self, spec, tracer: spans.Tracer):
        self.spec, self.tracer = spec, tracer
        self.seconds: list[float] = []
        self.current = None
        self.due_ns = 0

    def get(self):
        """(kernel, w_budget, gamma), set up afresh when the next set-up is due."""
        if time.perf_counter_ns() >= self.due_ns:
            self.current = None  # free the previous kernel before building the next
            spec = self.spec
            with self.tracer.span("bench.setup") as span:
                kernel = ch.make_kernel(spec.kernel, spec.experts, spec.kernel_params)
                w_budget = kernel.budget_bound(spec.rounds)
                gamma = ch.gamma_from_budget(w_budget)
                ch.Aggregator(kernel, gamma)
            self.seconds.append(span.ns / 1e9)
            self.current = (kernel, w_budget, gamma)
            self.due_ns = time.perf_counter_ns() + max(SETUP_INTERVAL_NS, 10 * span.ns)
        return self.current


def split_windows(starts: np.ndarray, ends: np.ndarray, size: int):
    """Cut one game's rounds into windows; a window's wall time runs to the next window."""
    n = len(starts)
    out = []
    for a in range(0, n, size):
        b = min(a + size, n)
        wall = (starts[b] if b < n else ends[n - 1]) - starts[a]
        out.append((b - a, int(wall), ends[a:b] - starts[a:b]))
    return out


# --- online workloads --------------------------------------------------------


def play_game(spec: Online, setup, seed, game, rounds, tracer):
    """One game: inputs, the timed round loop, then the timed report phase."""
    kernel, w_budget, gamma = setup
    agg = ch.Aggregator(kernel, gamma)
    loss_seq, sample_seq = np.random.SeedSequence([seed, game]).spawn(2)
    with tracer.span("bench.inputs"):
        stream = ch.loss_generator(spec.loss_gen, spec.experts, None, np.random.default_rng(loss_seq))
        table = np.array([next(stream) for _ in range(rounds)])
    rng = np.random.default_rng(sample_seq)
    run_round = agg.run_round
    probs = np.empty_like(table)
    starts = np.empty(rounds, dtype=np.int64)
    ends = np.empty(rounds, dtype=np.int64)
    clock = time.perf_counter_ns
    with tracer.span("bench.rounds") as loop:
        for t in range(rounds):
            starts[t] = clock()
            p, _ = run_round(table[t], rng)
            ends[t] = clock()
            probs[t] = p
    with tracer.span("bench.report"):
        t0 = clock()
        prefix = ch.best_prefix_losses(kernel, table)
        t1 = clock()
        _, best_loss = ch.best_competitor(kernel, table)
        t2 = clock()
        ch.bound_report(w_budget, probs, table)
        t3 = clock()
    return {
        "kernel": kernel,
        "w_budget": w_budget,
        "gamma": gamma,
        "table": table,
        "probs": probs,
        "prefix": prefix,
        "best_loss": best_loss,
        "log_weights": agg.log_weights(),
        "windows": split_windows(starts, ends, spec.window),
        "loop_ns": loop.ns,
        "report_ns": (t1 - t0, t2 - t1, t3 - t2),
    }


def check_game(spec: Online, g: dict) -> list[str]:
    try:
        return checks.check_online_game(
            g["kernel"],
            g["w_budget"],
            g["gamma"],
            g["table"],
            g["probs"],
            g["prefix"],
            g["best_loss"],
            g["log_weights"] if spec.trajectory_check else None,
        )
    except Exception as exc:
        return [f"check raised {exc!r}"]


def online_phase(spec: Online, seed, budget_s, first_game, tracer, outcome, run_dir) -> Phase:
    phase = Phase()
    setups = SetUps(spec, tracer)
    game = first_game
    deadline = time.perf_counter_ns() + budget_s * 1e9
    while time.perf_counter_ns() < deadline or phase.rounds == 0:
        tracer.run_id = game
        label = f"game {game}"
        try:
            g = play_game(spec, setups.get(), seed, game, spec.rounds, tracer)
        except Exception:
            traceback.print_exc()
            outcome.record(label, ["raised"])
            break
        game += 1
        tracer.recording = False
        try:
            outcome.record(label, check_game(spec, g))
        finally:
            tracer.recording = True
        phase.rounds += spec.rounds
        phase.timed_ns += g["loop_ns"]
        phase.windows += g["windows"]
        phase.report_ns.append(g["report_ns"])
        del g  # the next set-up should not share memory with this game's kernel
    phase.setup_s = setups.seconds
    return phase


# --- sweep workload ----------------------------------------------------------


def sweep_config(spec: Sweep, rounds: int):
    return ch.ExperimentConfig(
        experts=spec.experts,
        rounds=rounds,
        kernel=spec.kernel,
        kernel_params=dict(spec.kernel_params),
        gamma="auto",
        loss_gen=spec.loss_gen,
    )


def check_block(kernel, base, seeds, summary, block_dir, outcome) -> None:
    rows = checks.read_summary(summary)
    for s in seeds:
        try:
            problems = checks.check_sweep_seed(
                kernel, replace(base, seed=s), block_dir / f"seed_{s}.csv", rows.get(s)
            )
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        outcome.record(f"seed {s}", problems)


def sweep_phase(spec: Sweep, seed, budget_s, first_block, tracer, outcome, run_dir) -> Phase:
    phase = Phase()
    setups = SetUps(spec, tracer)
    block = first_block
    base = sweep_config(spec, spec.rounds)
    deadline = time.perf_counter_ns() + budget_s * 1e9
    while time.perf_counter_ns() < deadline or phase.rounds == 0:
        seeds = [seed * 10_000 + block * spec.seeds_per_block + i for i in range(spec.seeds_per_block)]
        block_dir = run_dir / f"block-{block}"
        block += 1
        kernel = setups.get()[0]
        try:
            with tracer.span("bench.sweep") as wall:
                summary = ch.run_sweep(base, seeds, block_dir, jobs=spec.jobs)
        except Exception:
            traceback.print_exc()
            for s in seeds:
                outcome.record(f"seed {s}", ["sweep raised"])
            break
        rss, worker_spans = tracer.collect_workers()
        add_worker_rounds(phase, worker_spans, spec.window)
        tracer.recording = False
        try:
            check_block(kernel, base, seeds, summary, block_dir, outcome)
        finally:
            tracer.recording = True
        shutil.rmtree(block_dir, ignore_errors=True)
        rounds = len(seeds) * spec.rounds
        phase.rounds += rounds
        phase.timed_ns += wall.ns
        phase.blocks.append((rounds, wall.ns))
        phase.worker_rss_kb = max(phase.worker_rss_kb, sum(rss.values()))
        phase.block_pids.append(sorted(rss))
    phase.setup_s = setups.seconds
    return phase


# The report phase of a sweep game: run_experiment computes the bound inline.
REPORT_STEPS = ("kernels.best_prefix_losses", "kernels.best_competitor")


def add_worker_rounds(phase: Phase, worker_spans: list[tuple], window: int) -> None:
    """Rounds and reports of a sweep ran in the workers: take them from their spans."""
    games: dict[tuple[int, int], list[tuple]] = {}
    report_ns: dict[tuple[int, int], dict[str, int]] = {}
    for s in worker_spans:
        key = (s[spans.PID], s[spans.RUN])
        if s[spans.NAME] == "aggregator.run_round":
            games.setdefault(key, []).append(s)
        elif s[spans.NAME] in REPORT_STEPS:
            report_ns.setdefault(key, {})[s[spans.NAME]] = s[spans.END] - s[spans.START]
    for rounds_of_game in games.values():
        rounds_of_game.sort(key=lambda s: s[spans.START])
        starts = np.array([s[spans.START] for s in rounds_of_game], dtype=np.int64)
        ends = np.array([s[spans.END] for s in rounds_of_game], dtype=np.int64)
        phase.windows += split_windows(starts, ends, window)
    phase.report_ns += [tuple(steps[name] for name in REPORT_STEPS) for steps in report_ns.values()]


def warm_up(spec, seed, run_dir, tracer) -> None:
    """Fill caches and finish lazy set-up before anything is timed; unchecked, uncounted."""
    setup = SetUps(spec, tracer).get()
    if isinstance(spec, Online):
        play_game(spec, setup, seed, 0, spec.warmup_rounds, tracer)
    else:
        seeds = list(range(spec.jobs))
        ch.run_sweep(sweep_config(spec, spec.warmup_rounds), seeds, run_dir / "warmup", jobs=spec.jobs)


def run_phase(spec, seed, budget_s, first, tracer, outcome, run_dir) -> Phase:
    phase_fn = online_phase if isinstance(spec, Online) else sweep_phase
    return phase_fn(spec, seed, budget_s, first, tracer, outcome, run_dir)


# --- metrics -----------------------------------------------------------------


def least_disturbed(units, min_rounds: int):
    """Windows that ran while no other tenant held the host.

    On a shared host each CPU alternates, in stretches of a second to tens
    of seconds, between running at full speed and running 1.5-2x slower
    while another tenant holds it.  A run's median over all rounds then
    flips between the two modes with their mix.  These are the units within
    UNDISTURBED_TOLERANCE of the fastest one's time per round, topped up
    with the next fastest until they hold ``min_rounds`` rounds.
    """
    ordered = sorted(units, key=lambda u: u[1] / u[0])
    limit = ordered[0][1] / ordered[0][0] * (1.0 + UNDISTURBED_TOLERANCE)
    chosen, held = [], 0
    for u in ordered:
        if held >= min_rounds and u[1] / u[0] > limit:
            break
        chosen.append(u)
        held += u[0]
    return chosen


def end_to_end(phase: Phase, parent_rss_kb: int) -> tuple[dict, int]:
    """End-to-end metrics and the number of latency samples behind the percentiles."""
    chosen = least_disturbed(phase.windows, LATENCY_SAMPLES)
    latency_us = np.concatenate([w[2] for w in chosen]) / 1e3
    values = {
        "round_us_p50": float(np.percentile(latency_us, 50)),
        "round_us_p99": float(np.percentile(latency_us, 99)),
        "rounds_per_s": phase.rounds_per_s(),
        # each report step at its least-disturbed game, like the windows above
        "report_s": sum(min(step) for step in zip(*phase.report_ns)) / 1e9,
        "setup_s": min(phase.setup_s),
        "peak_rss_mb": (parent_rss_kb + phase.worker_rss_kb) / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, latency_us.size


def per_layer(spec, tracer: spans.Tracer, traced: Phase, untraced: Phase):
    """Per-layer metrics from the traced phase, and the names not applicable here."""
    online = isinstance(spec, Online)
    phases = spans.summarize(tracer.all_spans())
    timed, self_by_pid = phases["bench.rounds" if online else "bench.sweep"]
    setup = phases["bench.setup"][0]
    report = phases["bench.report"][0] if online else timed
    inputs = phases["bench.inputs"][0] if online else timed
    rounds = traced.rounds

    def per_round_us(name):
        return timed[name]["self_ns"] / rounds / 1e3

    def median_s(group, name):
        d = group[name]["durations"]
        return statistics.median(d) / 1e9 if d else None

    gen = inputs["harness.loss_gen"]
    if online:
        critical_path_ns = sum(self_by_pid.values())
    else:  # the busiest worker of each block sets its wall time
        critical_path_ns = sum(max(self_by_pid[pid] for pid in pids) for pids in traced.block_pids)
    values = {
        "core.validate.calls_per_round": (timed["core.validate"]["calls"] / rounds, "count"),
        "core.validate.us_per_round": (per_round_us("core.validate"), "us"),
        "core.center_losses.self_us": (per_round_us("core.center_losses"), "us"),
        "core.round_stats.self_us": (per_round_us("core.round_stats"), "us"),
        "core.learning_rate.us": (per_round_us("core.learning_rate"), "us"),
        "aggregator.probabilities.self_us": (per_round_us("aggregator.probabilities"), "us"),
        "aggregator.sample.self_us": (per_round_us("aggregator.sample"), "us"),
        "aggregator.observe.self_us": (per_round_us("aggregator.observe"), "us"),
        "aggregator.run_round.self_us": (per_round_us("aggregator.run_round"), "us"),
        "kernels.build_s": (median_s(setup, "kernels.build"), "s"),
        "kernels.best_prefix_losses_s": (median_s(report, "kernels.best_prefix_losses"), "s"),
        "kernels.best_competitor_s": (median_s(report, "kernels.best_competitor"), "s"),
        "oracle.bound_report_s": (median_s(report, "oracle.bound_report"), "s"),
        "harness.loss_gen.us_per_round": (
            sum(gen["durations"]) / gen["calls"] / 1e3 if gen["calls"] else None,
            "us",
        ),
        "harness.run_experiment_s": (median_s(timed, "harness.run_experiment"), "s"),
        "harness.emit_csv_s": (median_s(timed, "harness.emit_csv"), "s"),
        "harness.pool_speedup": (
            None if online else sum(timed["harness.run_experiment"]["durations"]) / traced.timed_ns,
            "ratio",
        ),
        "trace.coverage": (critical_path_ns / traced.timed_ns, "ratio"),
        "trace.overhead": (
            untraced.rounds_per_s() / traced.rounds_per_s() - 1.0,
            "ratio",
        ),
    }
    not_applicable = sorted(k for k, (v, _) in values.items() if v is None)
    # A layer the workload never calls spent no time: report 0 and list it.
    metrics = {k: (0.0 if v is None else float(v), unit) for k, (v, unit) in values.items()}
    return metrics, not_applicable


# --- environment -------------------------------------------------------------


def environment() -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu_model": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


# --- entry point -------------------------------------------------------------


def run(workload: str, spec, seed: int, seconds: float, trace: bool, run_dir: Path):
    """Run one workload; returns (metrics, not_applicable, outcome, inputs)."""
    outcome = Outcome()
    inputs = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    inputs.update(asdict(spec))
    untraced_tracer = spans.Tracer(run_dir / "spans-untraced", keep_worker_spans=False)
    warm_up(spec, seed, run_dir, untraced_tracer)
    timing = () if isinstance(spec, Online) else spans.SWEEP_TIMING_TARGETS
    with spans.Instrumentation(untraced_tracer, timing):
        untraced = run_phase(spec, seed, seconds, 1, untraced_tracer, outcome, run_dir)
    parent_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    inputs["games"] = outcome.attempted
    inputs["rounds"] = untraced.rounds
    if outcome.failed or not untraced.rounds:
        return {}, [], outcome, inputs
    if not trace:
        metrics, inputs["latency_samples"] = end_to_end(untraced, parent_rss_kb)
        return metrics, [], outcome, inputs

    tracer = spans.Tracer(run_dir / "spans-traced", keep_worker_spans=True)
    with spans.Instrumentation(tracer, spans.LAYER_TARGETS):
        # A fifth of the untraced length: every span of it is kept in memory.
        traced = run_phase(spec, seed, seconds / 5, 1_000, tracer, outcome, run_dir)
    inputs["traced_rounds"] = traced.rounds
    trace_path = OUT_DIR / f"trace-{workload}.jsonl.gz"
    inputs["trace_file"] = str(trace_path.relative_to(ROOT))
    inputs["trace_spans"] = tracer.write_jsonl(trace_path)
    if outcome.failed or not traced.rounds:
        return {}, [], outcome, inputs
    metrics, not_applicable = per_layer(spec, tracer, traced, untraced)
    return metrics, not_applicable, outcome, inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        metrics, not_applicable, outcome, inputs = run(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines: list[str] = []
    verified = ch.run_verification(emit=lines.append)
    print("environment " + json.dumps(environment()))
    print("inputs " + json.dumps(inputs))
    for line in lines:
        print("run_verification " + line)
    fail_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"games attempted={outcome.attempted} failed={outcome.failed} fail_rate={fail_rate}")
    if not_applicable:
        print("not applicable on " + args.workload + ": " + ", ".join(not_applicable))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": bool(verified and outcome.attempted and not outcome.failed and metrics),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
