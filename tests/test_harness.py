"""Tests for loss generators, the experiment loop, CSV emission, and sweeps."""

import math

import numpy as np
import pytest

from classhedge.core import ConfigError
from classhedge.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_csv,
    emit_probs_csv,
    loss_generator,
    make_kernel,
    probs_csv_path,
    read_csv_columns,
    run_experiment,
    run_sweep,
    run_verification,
)


def take(stream, n):
    return np.array([next(stream) for _ in range(n)])


class TestLossGenerators:
    def test_constant_identical_vectors(self):
        rows = take(loss_generator("constant", 3, {"value": 2.5}, np.random.default_rng(0)), 5)
        np.testing.assert_array_equal(rows, np.full((5, 3), 2.5))

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss generator"):
            next(loss_generator("nope", 2, {}, np.random.default_rng(0)))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="does not take"):
            next(loss_generator("constant", 2, {"delta": 1.0}, np.random.default_rng(0)))

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("nope", {}, "unknown loss generator"),
            ("adversarial-switching", {"period": 0}, "period must be >= 1"),
            ("adversarial-switching", {"period": 2.5}, "must be an integer"),
            ("adversarial-cyclic", {"sigma": 1.5}, "must be an integer"),
            ("adversarial-cyclic", {"start": True}, "must be an integer"),
            ("iid-uniform", {"scale": math.inf}, "must be finite"),
        ],
    )
    def test_invalid_input_rejected_when_called(self, name, params, message):
        # no next(): the checks must not wait for the first loss to be drawn
        with pytest.raises(ConfigError, match=message):
            loss_generator(name, 2, params, np.random.default_rng(0))

    def test_integer_parameters_accept_numpy_integers(self):
        params = {"period": np.int64(10), "delta": 5.0}
        a = take(loss_generator("adversarial-switching", 3, params, np.random.default_rng(4)), 20)
        b = take(
            loss_generator("adversarial-switching", 3, {"period": 10, "delta": 5.0}, np.random.default_rng(4)),
            20,
        )
        np.testing.assert_array_equal(a, b)

    def test_deterministic_given_seed(self):
        a = take(loss_generator("gaussian-drift", 4, {}, np.random.default_rng(3)), 10)
        b = take(loss_generator("gaussian-drift", 4, {}, np.random.default_rng(3)), 10)
        np.testing.assert_array_equal(a, b)

    def test_iid_uniform_offset_and_scale(self):
        rows = take(
            loss_generator("iid-uniform", 3, {"offset": 5.0, "scale": 0.5}, np.random.default_rng(1)),
            200,
        )
        assert rows.min() >= 5.0 and rows.max() <= 5.5

    def test_adversarial_cyclic_plants_moving_advantage(self):
        experts, sigma, delta = 4, 1, 0.3
        rows = take(
            loss_generator(
                "adversarial-cyclic", experts, {"sigma": sigma, "delta": delta}, np.random.default_rng(2)
            ),
            4000,
        )
        planted = np.array([(sigma * t) % experts for t in range(4000)])
        planted_mean = rows[np.arange(4000), planted].mean()
        others_mean = (rows.sum(axis=1) - rows[np.arange(4000), planted]).mean() / (experts - 1)
        # planted trajectory sits delta below the rest in expectation
        assert others_mean - planted_mean == pytest.approx(delta, abs=0.03)

    def test_adversarial_switching_period_structure(self):
        # delta > 1 pushes the planted expert below zero every round, so the
        # planted column is identifiable: constant within each period block
        rows = take(
            loss_generator("adversarial-switching", 3, {"period": 10, "delta": 5.0}, np.random.default_rng(4)),
            40,
        )
        planted = rows.argmin(axis=1)
        assert np.all(rows[np.arange(40), planted] < 0)
        for block in planted.reshape(4, 10):
            assert len(set(block)) == 1


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experts=0, rounds=5).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(experts=2, rounds=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(experts=2, rounds=5, gamma=-1.0).validate()
        ExperimentConfig(experts=2, rounds=5).validate()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            make_kernel("mystery", 3)

    def test_auto_gamma_uses_declared_budget(self):
        report = run_experiment(ExperimentConfig(experts=4, rounds=3, kernel="cyclic", seed=1))
        expected = math.sqrt((1 + 2 * math.log(4)) / (2 * (math.e - 2)))
        assert report.gamma == pytest.approx(expected, rel=1e-15)


class TestRunExperiment:
    def test_single_expert_has_zero_regret(self):
        report = run_experiment(
            ExperimentConfig(experts=1, rounds=50, loss_gen="gaussian-drift", seed=5)
        )
        np.testing.assert_array_equal(report.exp_regret, 0.0)

    def test_constant_losses_zero_regret_and_static_probs(self):
        report = run_experiment(
            ExperimentConfig(experts=3, rounds=20, loss_gen="constant", loss_params={"value": 1.0}, seed=6)
        )
        np.testing.assert_array_equal(report.exp_regret, 0.0)
        np.testing.assert_allclose(report.probs, 1 / 3, rtol=1e-12)

    def test_monotone_columns(self):
        report = run_experiment(
            ExperimentConfig(experts=4, rounds=200, kernel="cyclic", loss_gen="iid-uniform", seed=7)
        )
        assert np.all(np.diff(report.D) >= 0)
        assert np.all(np.diff(report.V) >= 0)
        assert np.all(np.diff(report.eta) <= 0)

    def test_regret_definition_at_horizon(self):
        report = run_experiment(
            ExperimentConfig(experts=3, rounds=60, kernel="switching", seed=8)
        )
        expected = report.expected_loss.sum() - report.best_loss
        assert report.exp_regret[-1] == pytest.approx(expected, rel=1e-9)

    def test_realized_loss_matches_selection(self):
        report = run_experiment(ExperimentConfig(experts=5, rounds=30, seed=9))
        chosen = report.losses[np.arange(30), report.selections]
        np.testing.assert_array_equal(report.realized_loss, chosen)


class TestSystemInvariance:
    def test_offset_scale_config_leaves_prob_columns_identical(self, tmp_path):
        # same seed, so the generator draws the same uniforms: offset c and
        # scale s produce exactly a translated/scaled copy of the baseline
        def run(offset, scale, name):
            out = tmp_path / f"{name}.csv"
            config = ExperimentConfig(
                experts=4, rounds=250, kernel="cyclic", loss_gen="iid-uniform",
                loss_params={"offset": offset, "scale": scale}, seed=21,
                out=str(out), debug_probs=True,
            )
            report = run_experiment(config)
            telemetry = read_csv_columns(probs_csv_path(out))
            probs = np.column_stack([telemetry[f"p_{m}"] for m in range(4)])
            return probs, report

        base_probs, base = run(0.0, 1.0, "base")
        for offset, scale in ((7.0, 1.0), (-3.0, 100.0), (40.0, 1e-3)):
            probs, report = run(offset, scale, f"o{offset}s{scale}")
            np.testing.assert_allclose(probs, base_probs, rtol=1e-9, atol=1e-250)
            assert report.exp_regret[-1] == pytest.approx(
                scale * base.exp_regret[-1], rel=1e-9
            )

    def test_translated_scaled_stream_same_probs_scaled_regret(self):
        base_cfg = ExperimentConfig(
            experts=4, rounds=300, kernel="cyclic", loss_gen="iid-uniform", seed=10
        )
        base = run_experiment(base_cfg)
        rng = np.random.default_rng(10)
        shifts = rng.uniform(-40, 40, size=300)
        for scale in (1e-3, 1.0, 1e3):
            agg_probs, exp_regret = _replay_transformed(base, scale, shifts)
            np.testing.assert_allclose(agg_probs, base.probs, rtol=1e-9, atol=1e-250)
            assert exp_regret == pytest.approx(scale * base.exp_regret[-1], rel=1e-9)


def _replay_transformed(base_report, scale, shifts):
    """Re-run the engine on a translated/scaled copy of a recorded loss table."""
    from classhedge.aggregator import Aggregator
    from classhedge.kernels import best_prefix_losses

    config = base_report.config
    kernel = make_kernel(config.kernel, config.experts, config.kernel_params)
    agg = Aggregator(kernel, base_report.gamma)
    table = scale * (base_report.losses + shifts[:, None])
    probs = np.empty_like(table)
    for t in range(len(table)):
        probs[t] = agg.probabilities()
        agg.observe(table[t])
    expected = np.einsum("tm,tm->t", probs, table)
    best = best_prefix_losses(kernel, table)
    return probs, float(np.cumsum(expected)[-1] - best[-1])


class TestCsv:
    def test_two_lines_for_single_round(self, tmp_path):
        report = run_experiment(ExperimentConfig(experts=2, rounds=1, seed=11))
        out = tmp_path / "one.csv"
        emit_csv(report, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_field_order_contract(self):
        assert CSV_COLUMNS == (
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

    def test_round_trip_is_exact(self, tmp_path):
        report = run_experiment(
            ExperimentConfig(experts=3, rounds=25, kernel="cyclic", loss_gen="gaussian-drift", seed=12)
        )
        out = tmp_path / "run.csv"
        emit_csv(report, out)
        columns = read_csv_columns(out)
        np.testing.assert_allclose(columns["exp_regret"], report.exp_regret, rtol=1e-9)
        np.testing.assert_array_equal(columns["eta"], report.eta)
        np.testing.assert_array_equal(columns["t"], np.arange(1, 26))

    def test_identical_config_byte_identical_csv(self, tmp_path):
        config = ExperimentConfig(
            experts=4, rounds=40, kernel="cyclic", loss_gen="adversarial-cyclic", seed=13
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(config), a)
        emit_csv(run_experiment(config), b)
        assert a.read_bytes() == b.read_bytes()

    def test_debug_probs_file(self, tmp_path):
        out = tmp_path / "run.csv"
        config = ExperimentConfig(
            experts=2, rounds=5, seed=14, out=str(out), debug_probs=True
        )
        report = run_experiment(config)
        telemetry = read_csv_columns(probs_csv_path(out))
        np.testing.assert_allclose(telemetry["p_0"], report.probs[:, 0], rtol=1e-15)
        np.testing.assert_allclose(telemetry["l_1"], report.losses[:, 1], rtol=1e-15)

    def test_unwritable_path_surfaces_location(self, tmp_path):
        report = run_experiment(ExperimentConfig(experts=2, rounds=1, seed=15))
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(report, missing)
        with pytest.raises(OSError, match="probs"):
            emit_probs_csv(report, missing.with_name("y.probs.csv"))


class TestSweep:
    def test_summary_and_per_seed_files(self, tmp_path):
        base = ExperimentConfig(
            experts=3, rounds=60, kernel="cyclic", loss_gen="adversarial-cyclic", seed=0
        )
        summary = run_sweep(base, [0, 1, 2], tmp_path / "sweep", jobs=1)
        columns = read_csv_columns(summary)
        assert list(columns["seed"]) == [0.0, 1.0, 2.0]
        assert columns["within_bound"].all()
        for seed in (0, 1, 2):
            assert (tmp_path / "sweep" / f"seed_{seed}.csv").exists()

    def test_parallel_matches_serial(self, tmp_path):
        base = ExperimentConfig(experts=2, rounds=30, kernel="fixed", seed=0)
        serial = run_sweep(base, [4, 5], tmp_path / "serial", jobs=1)
        parallel = run_sweep(base, [4, 5], tmp_path / "parallel", jobs=2)
        assert serial.read_bytes() == parallel.read_bytes()


class TestVerification:
    def test_desk_scale_suite_passes(self):
        lines = []
        assert run_verification(seed=0, emit=lines.append)
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)
