"""End-to-end tests of the command-line surface."""

import argparse
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from classhedge.cli import _parser, load_config_file, main
from classhedge.core import ConfigError
from classhedge.harness import ExperimentConfig, make_kernel, read_csv_columns, run_experiment


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main([
        "run", "--experts", "4", "--rounds", "50", "--kernel", "cyclic",
        "--loss-gen", "adversarial-cyclic", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert "expected regret" in capsys.readouterr().out
    columns = read_csv_columns(out)
    assert len(columns["t"]) == 50


def test_run_trace(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run.csv"
    assert main([
        "run", "--experts", "2", "--rounds", "5", "--seed", "0",
        "--out", str(out), "--trace",
    ]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.csv", "run.trace.npz"]
    # without --out there is nowhere beside which to write it: refused before any work
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    capsys.readouterr()
    assert main(["run", "--experts", "2", "--rounds", "5", "--trace"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: trace is written beside the CSV, so it needs out\n" and captured.out == ""
    assert list(Path.cwd().iterdir()) == []


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
        # experiment settings
        experts = 3
        rounds = 20
        kernel = switching
        kernel_param.switch_weight = 0.2
        loss_gen = iid-uniform
        loss_param.scale = 2.0
        gamma = 1.5
        seed = 7
        """
    )
    parsed = load_config_file(cfg)
    assert parsed["kernel_params"] == {"switch_weight": 0.2}
    assert parsed["loss_params"] == {"scale": 2.0}
    assert parsed["gamma"] == 1.5

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    # overriding the seed must change the stream; same seed must not
    assert main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "7"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "8"]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_malformed_config_line_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experts: 3\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config_file(cfg)


@pytest.mark.parametrize("key", ["kernel_params", "loss_params"])
def test_config_file_rejects_a_whole_parameter_dict(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experts = 2\nrounds = 3\n{key} = 3\n")
    message = f"{cfg}:3: set {key} as '{key[:-1]}.<name> = value', got '{key} = 3'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config_file(cfg)
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gamma_beyond_the_double_range_exits_with_one_error_line(capsys):
    huge = "1" + "0" * 400
    assert main(["run", "--experts", "2", "--rounds", "3", "--gamma", huge]) == 1
    assert capsys.readouterr().err == f"error: gamma must be a positive finite real, got {huge}\n"


@pytest.mark.parametrize("argv", [["run", "--experts", "2"]], ids=["run"])
def test_rounds_beyond_an_array_index_exit_with_one_error_line(capsys, argv):
    # the budget would multiply the int by a float; nothing is allocated for it
    huge = "1" + "0" * 400
    assert main(argv + ["--rounds", huge]) == 1
    assert capsys.readouterr().err == f"error: rounds must be <= {2**63 - 1}, got {huge}\n"


def test_missing_required_keys_exit_nonzero(capsys):
    assert main(["run", "--experts", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_kernel_param_exits_nonzero(capsys):
    assert main([
        "run", "--experts", "3", "--rounds", "5", "--kernel", "fixed",
        "--kernel-param", "bogus=1",
    ]) == 1
    assert "does not take" in capsys.readouterr().err


def test_sweep_subcommand(tmp_path):
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep", "--experts", "3", "--rounds", "40", "--kernel", "cyclic",
        "--loss-gen", "adversarial-cyclic", "--seeds", "0:3",
        "--out-dir", str(out_dir), "--jobs", "1",
    ])
    assert code == 0
    columns = read_csv_columns(out_dir / "summary.csv")
    assert list(columns["seed"]) == [0.0, 1.0, 2.0]


def test_sweep_trace_writes_one_trace_per_seed(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main([
        "sweep", "--experts", "3", "--rounds", "20", "--seeds", "0:2",
        "--out-dir", str(out_dir), "--jobs", "1", "--trace",
    ]) == 0
    names = ["seed_0.csv", "seed_0.trace.npz", "seed_1.csv", "seed_1.trace.npz", "summary.csv"]
    assert sorted(path.name for path in out_dir.iterdir()) == names
    capsys.readouterr()
    assert main(["verify", str(out_dir / "seed_1.csv")]) == 0
    assert "final expected regret" in capsys.readouterr().out


def test_sweep_rejects_zero_jobs(tmp_path, capsys):
    assert main([
        "sweep", "--experts", "2", "--rounds", "5", "--seeds", "0:2",
        "--out-dir", str(tmp_path / "sweep"), "--jobs", "0",
    ]) == 1
    assert "error: jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_verify_a_run_file(tmp_path, capsys):
    out = tmp_path / "run.csv"
    main([
        "run", "--experts", "4", "--rounds", "60", "--kernel", "cyclic",
        "--loss-gen", "adversarial-cyclic", "--seed", "1",
        "--out", str(out), "--trace",
    ])
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the desk suite's two bound claims, then the stored bound against the trace's
    assert lines[:2] == [
        "PASS  variance statistic is at most a quarter of the squared ranges",
        "PASS  expected regret stays below the variance bound",
    ]
    assert len(lines) == 3 and lines[2].startswith("PASS  final bound_var ")
    columns = read_csv_columns(out)
    stored = columns["bound_var"][-1]
    # the trace's W is the run's own: W_T of the cyclic class at T=60
    assert f"(W={make_kernel('cyclic', 4).budget_bound(60):.12g} D=" in lines[2]
    # with the run's own budget the recomputed bound is the stored one
    assert f"final bound_var {stored:.12g} is the trace's" in lines[2]
    assert f" bound_var={stored:.12g} bound_range=" in lines[2]
    assert lines[2].endswith(f"; final expected regret {columns['exp_regret'][-1]:.12g})")


def test_verify_subcommand(capsys):
    assert main(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-m", "classhedge", "verify", "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("PASS") == 5


def test_constant_loss_sweep_is_within_bound(tmp_path):
    # every round is degenerate: the bound is 0 and so is the regret, exactly
    out_dir = tmp_path / "sweep"
    assert main([
        "sweep", "--experts", "5", "--rounds", "20", "--loss-gen", "constant",
        "--loss-param", "value=0.1", "--seeds", "0:2", "--out-dir", str(out_dir),
    ]) == 0
    columns = read_csv_columns(out_dir / "summary.csv")
    assert list(columns["within_bound"]) == [1.0, 1.0]
    assert list(columns["exp_regret"]) == [0.0, 0.0]


def test_overflowing_loss_scale_exits_nonzero(capsys):
    assert main([
        "run", "--experts", "3", "--rounds", "20", "--kernel", "switching",
        "--loss-param", "scale=1e160",
    ]) == 1
    assert "error:" in capsys.readouterr().err


def test_squared_ranges_past_the_double_range_report_inf_without_a_warning(capsys):
    # tier-1 turns a RuntimeWarning into an error, so numpy's overflow warnings would fail this run
    argv = ["run", "--experts", "2", "--rounds", "12", "--loss-gen", "iid-uniform", "--loss-param", "scale=1e154"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "experts=2 rounds=12 kernel=fixed gamma=1.08564 seed=0\n"
        "expected regret 5.44473e+153, realized regret 1.2581e+154, variance bound 3.80319e+154\n"
    )
    assert captured.err == ""
    report = run_experiment(ExperimentConfig(experts=2, rounds=12, loss_params={"scale": 1e154}))
    assert math.isinf(report.sum_d_sq[-1]) and math.isinf(report.bound_range[-1])
    assert math.isfinite(report.bound_var[-1])


def test_every_config_field_is_one_run_flag_and_one_sweep_flag():
    # _build_config reads its overrides off the fields, so a field without a flag could not be set
    fields = ExperimentConfig.__dataclass_fields__
    flags = set(fields) - {"kernel_params", "loss_params"}  # set by repeated K=V flags, merged
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("run", "sweep"):
        dests = [action.dest for action in commands[command]._actions if action.dest in fields]
        assert sorted(dests) == sorted(flags), command


@pytest.mark.parametrize("experts, value", [(5, "0.1"), (5, "0.2"), (5, "1.1"), (7, "1000.1")])
def test_constant_losses_run_cleanly(capsys, experts, value):
    # the centered scores of a constant loss vector are exact zeros
    assert main([
        "run", "--experts", str(experts), "--rounds", "20", "--loss-gen", "constant",
        "--loss-param", f"value={value}",
    ]) == 0
    assert "error:" not in capsys.readouterr().err


def test_non_integer_generator_parameter_exits_nonzero(capsys):
    assert main([
        "run", "--experts", "3", "--rounds", "20", "--loss-gen", "adversarial-switching",
        "--loss-param", "period=2.5",
    ]) == 1
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["experts = abc", "rounds = 2.5"])
def test_non_integer_config_value_exits_nonzero(tmp_path, capsys, line):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experts = 3\nrounds = 20\n" + line + "\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["out = 123", "out = true", "trace = no", "gamma = fast"])
def test_invalid_config_value_exits_nonzero_and_writes_nothing(tmp_path, capsys, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"experts = 3\nrounds = 20\nout = run.csv\n{line}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.parametrize(
    "flag, pair, message",
    [("--kernel-param", "switch_weight=abc", "switch_weight must be a real in (0, 1), got 'abc'"),
     ("--loss-param", "scale=x", "generator parameter scale='x' must be a real number")],
)
def test_non_numeric_parameter_exits_with_its_config_error(tmp_path, capsys, flag, pair, message):
    out = tmp_path / "run.csv"
    argv = ["run", "--experts", "3", "--rounds", "5", "--kernel", "switching", flag, pair, "--out", str(out)]
    assert main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def _run_with_trace(tmp_path, kernel="fixed"):
    out = tmp_path / "run.csv"
    assert main([
        "run", "--experts", "3", "--rounds", "10", "--seed", "2", "--kernel", kernel,
        "--out", str(out), "--trace",
    ]) == 0
    return out, tmp_path / "run.trace.npz"


def _rewrite_trace(trace, **arrays):
    with np.load(trace) as old:
        kept = {key: old[key] for key in old.files if key not in arrays}
    with open(trace, "wb") as fh:
        np.savez(fh, **kept, **arrays)


def _one_error_line(capsys, code, argv) -> str:
    assert main(argv) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in captured.err, captured.err
    assert captured.out == ""
    return lines[0]


def test_verify_run_rejects_csv_without_its_columns(tmp_path, capsys):
    out, _ = _run_with_trace(tmp_path)
    lines = out.read_text().splitlines()
    out.write_text("\n".join(",".join(line.split(",")[:6]) for line in lines) + "\n")  # t .. real_regret
    capsys.readouterr()
    assert _one_error_line(capsys, 1, ["verify", str(out)]) == f"error: {out} has no column(s) bound_var"


def test_verify_run_rejects_invalid_telemetry_rows(tmp_path, capsys):
    out, trace = _run_with_trace(tmp_path)
    with np.load(trace) as arrays:
        probs, losses = arrays["probs"], arrays["losses"]
    capsys.readouterr()
    # row 2 holds round 3
    for name, table, value, message in (("probs", probs, 0.9, "sum to"), ("losses", losses, np.nan, "NaN or infinite")):
        bad = table.copy()
        bad[2, 0] = value
        _rewrite_trace(trace, **{name: bad})
        err = _one_error_line(capsys, 1, ["verify", str(out)])
        assert "round 3" in err and message in err
        _rewrite_trace(trace, probs=probs, losses=losses)


def test_verify_run_rejects_header_only_csv(tmp_path, capsys):
    out, _ = _run_with_trace(tmp_path)
    out.write_text(out.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _one_error_line(capsys, 1, ["verify", str(out)])
    assert err.startswith(f"error: {out} needs at least one row")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_run_fails_a_non_finite_stored_bound(tmp_path, capsys, value):
    out, _ = _run_with_trace(tmp_path)
    assert main(["verify", str(out)]) == 0
    lines = out.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[6] = value  # bound_var
    out.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[2].startswith(f"FAIL  final bound_var {float(value):.12g} is the trace's (W=")


def test_verify_run_refuses_a_trace_of_another_round_count(tmp_path, capsys):
    out, trace = _run_with_trace(tmp_path)
    with np.load(trace) as arrays:
        probs, losses = arrays["probs"], arrays["losses"]
    capsys.readouterr()
    for rows in (9, 0):
        _rewrite_trace(trace, probs=probs[:rows], losses=losses[:rows])
        err = _one_error_line(capsys, 1, ["verify", str(out)])
        assert err == f"error: {trace} holds probabilities of shape ({rows}, 3); {out} has 10 rounds"


def _write_object_array(trace):
    _rewrite_trace(trace, probs=np.full((10, 3), 1 / 3, dtype=object))


def _write_npy(trace):
    with open(trace, "wb") as fh:
        np.save(fh, np.zeros(3))


def _drop_losses(trace):
    with np.load(trace) as arrays:
        kept = {"w_budget": arrays["w_budget"], "probs": arrays["probs"]}
    with open(trace, "wb") as fh:
        np.savez(fh, **kept)


@pytest.mark.parametrize("spoil, message", [
    (lambda trace: trace.unlink(), "No such file or directory"),
    (lambda trace: trace.write_text("t,p_0\n1,1\n"), "is not a run trace: This file contains pickled"),
    (lambda trace: trace.write_bytes(b""), "is not a run trace: No data left in file"),
    (lambda trace: trace.write_bytes(trace.read_bytes()[:200]), "is not a run trace: File is not a zip file"),
    (_write_npy, "is not a run trace: not an npz archive"),
    (_drop_losses, "is not a run trace: 'losses is not a file in the archive'"),
    (_write_object_array, "is not a run trace: Object arrays cannot be loaded when allow_pickle=False"),
    (lambda trace: _rewrite_trace(trace, w_budget=np.float64(0.5)), "class budget must be a finite real >= 1"),
    (lambda trace: _rewrite_trace(trace, w_budget=np.ones(2)), "class budget must be a finite real >= 1"),
], ids=["missing", "text", "empty", "truncated-zip", "npy", "missing-key", "object-array", "budget", "budget-array"])
def test_verify_run_names_a_bad_trace_in_one_error_line(tmp_path, capsys, spoil, message):
    out, trace = _run_with_trace(tmp_path)
    spoil(trace)
    capsys.readouterr()
    assert message in _one_error_line(capsys, 1, ["verify", str(out)])


def test_verify_run_finds_that_another_kernels_trace_disagrees(tmp_path, capsys):
    # same seed and generator, so the same losses; the switching class has another W and other plays
    out, trace = _run_with_trace(tmp_path, kernel="fixed")
    (tmp_path / "switching").mkdir()
    _, other_trace = _run_with_trace(tmp_path / "switching", kernel="switching")
    other_trace.replace(trace)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line[:4] for line in captured.out.splitlines()] == ["PASS", "PASS", "FAIL"]
    assert "bound_var=" in captured.out


def test_verify_run_fails_a_regret_past_its_bound_before_the_last_round(tmp_path, capsys):
    # the last row is within its bound, so a check of the final row alone would pass
    out, _ = _run_with_trace(tmp_path)
    lines = out.read_text().splitlines()
    cells = lines[5].split(",")  # round 5
    cells[4] = repr(float(cells[6]) * 1.5 + 1.0)  # exp_regret above bound_var
    out.write_text("\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n")
    columns = read_csv_columns(out)
    assert columns["exp_regret"][-1] <= columns["bound_var"][-1] and columns["exp_regret"][4] > columns["bound_var"][4]
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[:2] == [
        "PASS  variance statistic is at most a quarter of the squared ranges",
        "FAIL  expected regret stays below the variance bound",
    ]
    assert captured.out.splitlines()[2].startswith("PASS  final bound_var ")


def test_verify_refuses_a_seed_with_a_run_file(tmp_path, capsys):
    out, _ = _run_with_trace(tmp_path)
    capsys.readouterr()
    err = _one_error_line(capsys, 1, ["verify", "--seed", "0", str(out)])
    assert err == "error: verify takes --seed or a run file, not both: a seed draws the desk suite's cases"


@pytest.mark.parametrize("flag", ["--probs", "--w-budget", "--kernel", "--kernel-param", "--experts", "--csv"])
def test_verify_run_takes_only_the_csv(capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "run.csv", flag, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


# pytest turns a RuntimeWarning into an error, so a numpy overflow warning fails these runs
@pytest.mark.parametrize("loss_args, message", [
    (["iid-uniform", "--loss-param", "offset=1e308", "--loss-param", "scale=1e308"],
     "losses contain NaN or infinite entries"),
    (["iid-uniform", "--loss-param", "offset=1.7e308", "--loss-param", "scale=1e307"],
     "round 1: score range 6.266004004973822e+306 overflows when squared"),
    (["gaussian-drift", "--loss-param", "drift=1.7e308", "--loss-param", "spread=1.7e308"],
     "losses contain NaN or infinite entries"),
    (["gaussian-drift", "--loss-param", "drift=1e308"],
     "round 2: score range 6.017473719932259e+307 overflows when squared"),
], ids=["iid-inf", "iid-range", "drift-inf", "drift-range"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_overflowing_generator_setting_prints_one_error_line(tmp_path, capsys, loss_args, message, command):
    extra = ["--seeds", "0", "--jobs", "1", "--out-dir", str(tmp_path)] if command == "sweep" else []
    argv = [command, "--experts", "3", "--rounds", "50", "--loss-gen", *loss_args, *extra]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("loss_args, message", [
    (["constant", "--loss-param", "value=1e308"], "round 1: summed |losses| pass half the largest double"),
    (["iid-uniform", "--loss-param", "offset=1e307"], "round 9: summed |losses| pass half the largest double"),
], ids=["constant", "iid-offset"])
def test_loss_sums_past_the_double_range_stop_the_run_in_one_error_line(tmp_path, capsys, loss_args, message):
    # every round is finite and degenerate; only the report's running sums would overflow
    out = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--experts", "3", "--rounds", "50", "--loss-gen", *loss_args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--experts", "2", "--rounds", "5", "--kernel-param", "x"], "error: --kernel-param expects k=v, got 'x'"),
    (["run", "--config", "{cfg}"], "error: unknown config keys ['bogus', 'debug_probs']"),
    (["sweep", "--experts", "8", "--rounds", "300", "--kernel", "cyclic", "--loss-gen", "adversarial-cyclic",
      "--gamma", "0.001", "--seeds", "0:3", "--out-dir", "{dir}", "--jobs", "1"],
     "3 seed(s) exceeded the variance bound"),
], ids=["kernel-param", "config-key", "sweep-over-bound"])
def test_cli_refusals_print_one_line_and_exit_1(tmp_path, capsys, argv, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experts = 2\nrounds = 5\nbogus = 1\ndebug_probs = true\n")
    argv = [arg.format(cfg=cfg, dir=tmp_path / "sweep") for arg in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == message + "\n"


def test_readme_cli_block_uses_only_flags_its_subcommands_take():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    lines = [line.split() for line in block.replace("\\\n", " ").splitlines()]
    used = [words for words in lines if words[:1] == ["classhedge"]]
    assert sorted({words[1] for words in used}) == sorted(commands)
    for words in used:
        options = commands[words[1]]._option_string_actions
        for flag in (word for word in words[2:] if word.startswith("-")):
            assert flag in options, f"README: `classhedge {words[1]}` has no option {flag}"
        # the real parser: a positional that no subcommand takes fails too
        try:
            _parser().parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README: `{' '.join(words)}` does not parse")
