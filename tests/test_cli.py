"""End-to-end tests of the command-line surface."""

import math

import pytest

from classhedge.cli import load_config_file, main
from classhedge.core import ConfigError
from classhedge.harness import probs_csv_path, read_csv_columns


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
        "--kernel", "cyclic", "--experts", "4", "--rounds", "60",
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


def test_overflowing_loss_scale_exits_nonzero(capsys):
    assert main([
        "run", "--experts", "3", "--rounds", "20", "--kernel", "switching",
        "--loss-param", "scale=1e160",
    ]) == 1
    assert "error:" in capsys.readouterr().err


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
