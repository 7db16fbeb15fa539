"""Command-line interface.

Subcommands:
  run     one experiment -> per-round CSV
  sweep   the same experiment across a seed grid, in parallel
  verify  desk-scale oracle cross-checks of the engine; with a run's CSV, its
          bound claims checked against the trace beside it

Every config-file key can be overridden by the CLI flag of the same name;
exit status is nonzero on any configuration or invariant failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import ConfigError, InvariantViolation, ProtocolError
from . import harness


def _parse_value(text: str):
    lowered = text.strip()
    if lowered.lower() in ("true", "false"):
        return lowered.lower() == "true"
    try:
        return int(lowered)
    except ValueError:
        pass
    try:
        return float(lowered)
    except ValueError:
        return lowered


def load_config_file(path) -> dict:
    """Flat `key = value` file; `kernel_param.x` / `loss_param.x` nest into dicts."""
    out: dict = {"kernel_params": {}, "loss_params": {}}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("kernel_param."):
            out["kernel_params"][key.split(".", 1)[1]] = _parse_value(value)
        elif key.startswith("loss_param."):
            out["loss_params"][key.split(".", 1)[1]] = _parse_value(value)
        elif key in ("kernel_params", "loss_params"):
            raise ConfigError(f"{path}:{lineno}: set {key} as '{key[:-1]}.<name> = value', got {raw!r}")
        else:
            out[key] = _parse_value(value)
    return out


def _kv_pairs(items: list[str] | None, flag: str) -> dict:
    result = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"{flag} expects k=v, got {item!r}")
        key, value = item.split("=", 1)
        result[key.strip()] = _parse_value(value)
    return result


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--experts", type=int, help="number of experts M")
    parser.add_argument("--rounds", type=int, help="game length T")
    parser.add_argument("--kernel", choices=harness.KERNELS, help="competition class")
    parser.add_argument(
        "--kernel-param", action="append", metavar="K=V", help="kernel parameter (repeatable)"
    )
    parser.add_argument(
        "--gamma", type=_parse_value, help="'auto' (from the kernel budget) or a positive real"
    )
    parser.add_argument("--loss-gen", choices=harness.GENERATORS, help="loss stream")
    parser.add_argument(
        "--loss-param", action="append", metavar="K=V", help="generator parameter (repeatable)"
    )
    parser.add_argument("--seed", type=int, help="64-bit seed")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument(
        "--trace", action="store_true", default=None, help="also write <out stem>.trace.npz: W, p and l"
    )


def _build_config(args: argparse.Namespace) -> harness.ExperimentConfig:
    fields = harness.ExperimentConfig.__dataclass_fields__
    merged = load_config_file(args.config) if args.config else {"kernel_params": {}, "loss_params": {}}
    # a flag overrides the file's key of the same name; kernel and loss parameters merge
    merged.update({k: v for k, v in vars(args).items() if k in fields and v is not None})
    merged["kernel_params"].update(_kv_pairs(args.kernel_param, "--kernel-param"))
    merged["loss_params"].update(_kv_pairs(args.loss_param, "--loss-param"))
    if "experts" not in merged or "rounds" not in merged:
        raise ConfigError("both --experts and --rounds are required (flag or config file)")
    unknown = merged.keys() - fields
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return harness.ExperimentConfig(**merged)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    report = harness.run_experiment(config)
    end = report.rounds - 1
    print(
        f"experts={config.experts} rounds={config.rounds} kernel={config.kernel} "
        f"gamma={report.gamma:.6g} seed={config.seed}"
    )
    print(
        f"expected regret {report.exp_regret[end]:.6g}, realized regret "
        f"{report.real_regret[end]:.6g}, variance bound {report.bound_var[end]:.6g}"
    )
    if config.out:
        print(f"wrote {config.out}")
    return 0


def _parse_seeds(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        try:
            return list(range(int(lo), int(hi)))
        except OverflowError as exc:  # more seeds than a list can hold
            raise ConfigError(f"seed range {text} is too long") from exc
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args)
    seeds = _parse_seeds(args.seeds)
    summary = harness.run_sweep(config, seeds, args.out_dir, jobs=args.jobs)
    print(f"wrote {summary}")
    columns = harness.read_csv_columns(summary)
    bad = int(len(columns["seed"]) - columns["within_bound"].sum())
    if bad:
        print(f"{bad} seed(s) exceeded the variance bound", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.run is None:
        return 0 if harness.run_verification(seed=0 if args.seed is None else args.seed) else 1
    if args.seed is not None:
        raise ConfigError("verify takes --seed or a run file, not both: a seed draws the desk suite's cases")
    columns = harness.read_csv_columns(args.run, ("bound_var", "exp_regret"))
    trace = harness.read_trace(args.run, len(columns["bound_var"]))
    return 0 if harness.check_run(*trace, columns["exp_regret"], columns["bound_var"], print, stored=True) else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classhedge",
        description="Translation- and scale-invariant online expert selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a seed grid in parallel")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--seeds", required=True, help="range lo:hi or comma list")
    p_sweep.add_argument("--out-dir", required=True, help="directory for per-seed CSVs")
    p_sweep.add_argument("--jobs", type=int, help="worker processes (default: min(seeds, cpu count))")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="desk-scale oracle cross-checks, or a traced run's bound claims")
    p_verify.add_argument("run", nargs="?", help="per-round CSV from `run --trace`, beside its trace")
    p_verify.add_argument("--seed", type=int, help="the desk suite's seed (default 0); not with a run")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProtocolError, InvariantViolation, OSError, ValueError) as exc:
        # one line, also for a message that quotes a table's multi-line repr
        print("error:", " ".join(map(str.strip, str(exc).splitlines())), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
