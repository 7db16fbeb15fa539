"""End-to-end tests of the command-line surface."""

import argparse
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from classhedge.cli import _parser, load_config_file, main
from classhedge.core import ConfigError
from classhedge.harness import ExperimentConfig, probs_csv_path, read_csv_columns, run_experiment


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


def test_run_debug_probs(tmp_path):
    out = tmp_path / "run.csv"
    assert main([
        "run", "--experts", "2", "--rounds", "5", "--seed", "0",
        "--out", str(out), "--debug-probs",
    ]) == 0
    assert probs_csv_path(out).exists()


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


def test_sweep_rejects_zero_jobs(tmp_path, capsys):
    assert main([
        "sweep", "--experts", "2", "--rounds", "5", "--seeds", "0:2",
        "--out-dir", str(tmp_path / "sweep"), "--jobs", "0",
    ]) == 1
    assert "error: jobs must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_bounds_subcommand(tmp_path, capsys):
    out = tmp_path / "run.csv"
    main([
        "run", "--experts", "4", "--rounds", "60", "--kernel", "cyclic",
        "--loss-gen", "adversarial-cyclic", "--seed", "1",
        "--out", str(out), "--debug-probs",
    ])
    capsys.readouterr()
    code = main([
        "bounds", "--csv", str(out), "--probs", str(probs_csv_path(out)),
        "--kernel", "cyclic", "--experts", "4",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "bound_var=" in text and "final expected regret" in text

    code = main(["bounds", "--csv", str(out), "--w-budget", "3.5"])
    assert code == 0

    # with the run's own budget the recomputed bound is the stored one
    capsys.readouterr()
    w_budget = 1.0 + 2.0 * math.log(4)
    assert main(["bounds", "--csv", str(out), "--w-budget", repr(w_budget)]) == 0
    printed = capsys.readouterr().out.split("bound_var=", 1)[1].split()[0]
    stored = read_csv_columns(out)["bound_var"][-1]
    assert printed == format(stored, ".12g")


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


@pytest.mark.parametrize("line", ["out = 123", "out = true", "debug_probs = no", "gamma = fast"])
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


def _run_with_probs(tmp_path):
    out = tmp_path / "run.csv"
    assert main([
        "run", "--experts", "3", "--rounds", "10", "--seed", "2",
        "--out", str(out), "--debug-probs",
    ]) == 0
    return out, probs_csv_path(out)


def test_bounds_rejects_csv_without_its_columns(tmp_path, capsys):
    out, probs = _run_with_probs(tmp_path)
    capsys.readouterr()
    assert main(["bounds", "--csv", str(probs), "--w-budget", "5"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["bounds", "--csv", str(out), "--probs", str(out), "--w-budget", "5"]) == 1
    assert "no column(s) p_0, l_0" in capsys.readouterr().err


def test_bounds_rejects_invalid_telemetry_rows(tmp_path, capsys):
    out, probs = _run_with_probs(tmp_path)
    lines = probs.read_text().splitlines()
    capsys.readouterr()
    # columns t, p_0..p_2, l_0..l_2; line 3 holds round 3
    for column, value, message in ((1, "0.9", "sum to"), (4, "nan", "NaN or infinite")):
        cells = lines[3].split(",")
        cells[column] = value
        probs.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
        assert main(["bounds", "--csv", str(out), "--probs", str(probs), "--w-budget", "5"]) == 1
        err = capsys.readouterr().err
        assert "round 3" in err and message in err


def test_bounds_rejects_header_only_csv(tmp_path, capsys):
    out, probs = _run_with_probs(tmp_path)
    capsys.readouterr()
    for emptied in (out, probs):
        full = emptied.read_text()
        emptied.write_text(full.splitlines()[0] + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", "--csv", str(out), "--probs", str(probs), "--w-budget", "5"]) == 1
        err = capsys.readouterr().err
        assert f"error: {emptied} needs at least one row" in err
        emptied.write_text(full)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bounds_rejects_non_finite_stored_bound(tmp_path, capsys, value):
    out, probs = _run_with_probs(tmp_path)
    budget = ["--kernel", "fixed", "--experts", "3"]
    assert main(["bounds", "--csv", str(out), "--probs", str(probs), *budget]) == 0
    lines = out.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[6] = value  # bound_var
    out.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    capsys.readouterr()
    assert main(["bounds", "--csv", str(out), "--probs", str(probs), *budget]) == 1
    assert "disagrees with recomputation" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "0.5", "-3"])
def test_bounds_rejects_invalid_budget(tmp_path, capsys, value):
    out, probs = _run_with_probs(tmp_path)
    capsys.readouterr()
    for extra in ([], ["--probs", str(probs)]):
        assert main(["bounds", "--csv", str(out), *extra, "--w-budget", value]) == 1
        captured = capsys.readouterr()
        assert "class budget must be a finite real >= 1" in captured.err
        assert "bound_var" not in captured.out


def test_bounds_kernel_gate_names_a_bad_integer(tmp_path, capsys):
    budget = ["--kernel", "fixed", "--experts", "0"]
    assert main(["bounds", "--csv", str(tmp_path / "run.csv"), *budget]) == 1
    err = capsys.readouterr().err
    assert "num_experts must be >= 1, got 0" in err and "provide --w-budget" not in err


def test_bounds_reads_the_rounds_off_the_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main([
        "run", "--experts", "4", "--rounds", "60", "--kernel", "switching",
        "--loss-gen", "adversarial-cyclic", "--seed", "1", "--out", str(out), "--debug-probs",
    ]) == 0
    stored = read_csv_columns(out)["bound_var"][-1]
    budget = ["--kernel", "switching", "--experts", "4"]
    for extra in ([], ["--probs", str(probs_csv_path(out))]):
        capsys.readouterr()
        assert main(["bounds", "--csv", str(out), *extra, *budget]) == 0
        printed = capsys.readouterr().out.split("bound_var=", 1)[1].split()[0]
        assert printed == format(stored, ".12g")


def test_bounds_refuses_experts_that_disagree_with_the_probs_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main([
        "run", "--experts", "4", "--rounds", "60", "--kernel", "switching",
        "--loss-gen", "adversarial-cyclic", "--seed", "1", "--out", str(out), "--debug-probs",
    ]) == 0
    capsys.readouterr()
    argv = ["bounds", "--csv", str(out), "--probs", str(probs_csv_path(out)), "--kernel", "switching"]
    assert main([*argv, "--experts", "16"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "--experts is 16" in lines[0] and "has 4 p_ columns" in lines[0]
    assert "Traceback" not in captured.err and "bound_var" not in captured.out
