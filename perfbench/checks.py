"""Correctness checks behind ``fail_rate``; each returns a list of problems.

They run outside the timed phases, with span recording paused.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import classhedge as ch
from classhedge.harness import CSV_COLUMNS, read_csv_columns

REL_TOL = 1e-9


def _dp_agree(prefix_last: float, best_loss: float) -> bool:
    return abs(prefix_last - best_loss) <= REL_TOL * max(1.0, abs(best_loss))


def check_online_game(kernel, w_budget, gamma, table, probs, prefix, best_loss, log_weights=None):
    """One online game: the report-phase outputs against the loss table played.

    ``log_weights`` is given for permutation kernels, whose final weights have
    an independent per-trajectory oracle.
    """
    problems = []
    if not _dp_agree(float(prefix[-1]), best_loss):
        problems.append(f"prefix DP {prefix[-1]!r} != path DP {best_loss!r}")
    regret = float(np.einsum("tm,tm->", probs, table)) - best_loss
    bound = ch.bound_report(w_budget, probs, table).bound_var
    if not regret <= bound:
        problems.append(f"expected regret {regret!r} exceeds bound_var {bound!r}")
    if log_weights is not None:
        reference = ch.trajectory_reference(kernel, table, gamma)[-1]
        if not np.allclose(log_weights, reference, rtol=0.0, atol=REL_TOL):
            dev = float(np.max(np.abs(log_weights - reference)))
            problems.append(f"final log weights deviate from trajectory_reference by {dev:.3e}")
    return problems


def sweep_loss_table(config) -> np.ndarray:
    """The loss table run_experiment plays for ``config``.

    Mirrors its seeding: the first of two streams spawned from the seed feeds
    the loss generator.
    """
    loss_seq = np.random.SeedSequence(int(config.seed)).spawn(2)[0]
    stream = ch.loss_generator(
        config.loss_gen, config.experts, config.loss_params, np.random.default_rng(loss_seq)
    )
    return np.array([next(stream) for _ in range(config.rounds)])


def read_summary(path: Path) -> dict[int, dict[str, float]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
    return {int(r["seed"]): {k: float(v) for k, v in r.items()} for r in rows}


def check_sweep_seed(kernel, config, csv_path: Path, summary_row) -> list[str]:
    """One sweep game: its per-seed CSV, its summary row and both DPs."""
    if summary_row is None:
        return ["seed missing from summary.csv"]
    problems = []
    if summary_row["within_bound"] != 1:
        problems.append("summary.csv row has within_bound != 1")
    cols = read_csv_columns(csv_path)
    shape = (len(next(iter(cols.values()))), len(cols))
    if tuple(cols) != CSV_COLUMNS or shape != (config.rounds, len(CSV_COLUMNS)):
        return problems + [f"{csv_path.name} parses to {shape}, expected ({config.rounds}, 11)"]
    regret, bound = float(cols["exp_regret"][-1]), float(cols["bound_var"][-1])
    if regret != summary_row["exp_regret"] or bound != summary_row["bound_var"]:
        problems.append("summary.csv disagrees with the last row of the per-seed CSV")
    if not (math.isfinite(bound) and regret <= bound):
        problems.append(f"expected regret {regret!r} exceeds bound_var {bound!r}")
    table = sweep_loss_table(config)
    prefix = ch.best_prefix_losses(kernel, table)
    _, best_loss = ch.best_competitor(kernel, table)
    if not _dp_agree(float(prefix[-1]), best_loss):
        problems.append(f"prefix DP {prefix[-1]!r} != path DP {best_loss!r}")
    if not np.allclose(cols["best_cumloss"], prefix, rtol=REL_TOL, atol=REL_TOL):
        problems.append("best_cumloss column disagrees with best_prefix_losses")
    return problems
