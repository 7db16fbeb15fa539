"""Tests for loss generators, the experiment loop, CSV emission, and sweeps."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from classhedge import Aggregator, core
from classhedge.core import ConfigError
from classhedge.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    _write_csv,
    emit_csv,
    emit_probs_csv,
    loss_generator,
    make_kernel,
    probs_csv_path,
    read_csv_columns,
    read_probs_csv,
    run_experiment,
    run_sweep,
    run_verification,
)
from classhedge.kernels import FixedShare


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
        for bad in ({"gamma": "fast"}, {"gamma": True}, {"out": 123}, {"debug_probs": "no"}):
            with pytest.raises(ConfigError):
                ExperimentConfig(experts=2, rounds=5, **bad).validate()
        ExperimentConfig(experts=2, rounds=5).validate()
        ExperimentConfig(experts=2, rounds=5, gamma=2, out=Path("run.csv")).validate()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            make_kernel("mystery", 3)

    @pytest.mark.parametrize(
        "weight",
        ["abc", None, True, "0.1", math.nan, math.inf, 1.0,
         pytest.param(10**400, id="1e400"), pytest.param(-10**400, id="-1e400")],
    )
    def test_switch_weight_must_be_a_real_in_the_unit_interval(self, weight):
        with pytest.raises(ConfigError, match="switch_weight must be a real in"):
            make_kernel("switching", 3, {"switch_weight": weight})

    def test_switch_weight_accepts_numpy_reals(self):
        assert isinstance(
            make_kernel("switching", 3, {"switch_weight": np.float32(0.25)}).structure, FixedShare
        )

    @pytest.mark.parametrize("params", [[1], "switch_weight", 0.1])
    def test_parameters_must_be_a_mapping(self, params):
        with pytest.raises(ConfigError, match="must be a mapping"):
            make_kernel("switching", 3, params)
        for field in ("kernel_params", "loss_params"):
            with pytest.raises(ConfigError, match="must be a mapping"):
                run_experiment(ExperimentConfig(experts=3, rounds=5, kernel="switching", **{field: params}))

    @pytest.mark.parametrize("value", ["x", None, True, [1.0]])
    def test_real_generator_parameters_must_be_real_numbers(self, value):
        with pytest.raises(ConfigError, match="must be a real number"):
            run_experiment(ExperimentConfig(experts=3, rounds=5, loss_params={"scale": value}))

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

    @pytest.mark.parametrize("kernel", ["fixed", "cyclic", "switching"])
    def test_record_is_what_a_plain_round_loop_plays(self, kernel):
        # replay the report's loss table on the sampling stream run_experiment spawns from the seed
        report = run_experiment(ExperimentConfig(
            experts=5, rounds=150, kernel=kernel, loss_gen="adversarial-switching", seed=13
        ))
        agg = Aggregator(make_kernel(kernel, 5), report.gamma)
        rng = np.random.default_rng(np.random.SeedSequence(13).spawn(2)[1])
        played = {name: [] for name in ("selections", "probs", "expected_loss", "eta", "D", "V", "d")}
        for losses in report.losses:
            p, choice = agg.run_round(losses, rng)
            diag = agg.last_round
            for name, value in zip(played, (choice, p, diag.expected_loss, diag.eta, diag.D, diag.V, diag.d)):
                played[name].append(value)
        for name, values in played.items():
            want = np.array(values, dtype=getattr(report, name).dtype)
            assert getattr(report, name).tobytes() == want.tobytes(), name
        rounds = np.arange(report.rounds)
        assert report.realized_loss.tobytes() == report.losses[rounds, report.selections].tobytes()


    @pytest.mark.parametrize("kernel", ["fixed", "cyclic", "switching"])
    def test_losses_validated_once_per_round_and_once_per_dp(self, monkeypatch, kernel):
        calls = []
        original = core.as_loss_array

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # replace every alias, whichever module looks the gate up
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "classhedge" or mod_name.startswith("classhedge."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        run_experiment(ExperimentConfig(experts=3, rounds=25, kernel=kernel, seed=2))
        assert len(calls) == 25 + 2

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


def _per_cell_csv(header, table) -> bytes:
    """Reference rendering of a report CSV, one cell at a time: ``t`` as an
    integer, every other cell with format(x, ".17g"), and "\n" line ends."""
    lines = [",".join(header)]
    for t, row in enumerate(table, start=1):
        lines.append(",".join([str(t)] + [format(float(x), ".17g") for x in row]))
    return ("\n".join(lines) + "\n").encode()


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
        emit_probs_csv(report, probs_csv_path(out))
        columns = read_csv_columns(out)
        assert tuple(columns) == CSV_COLUMNS
        np.testing.assert_array_equal(columns["t"], np.arange(1, 26))
        for name in CSV_COLUMNS[1:]:
            np.testing.assert_array_equal(columns[name], getattr(report, name))
        telemetry = read_csv_columns(probs_csv_path(out))
        assert list(telemetry) == ["t", "p_0", "p_1", "p_2", "l_0", "l_1", "l_2"]
        np.testing.assert_array_equal(telemetry["t"], np.arange(1, 26))
        for m in range(3):
            np.testing.assert_array_equal(telemetry[f"p_{m}"], report.probs[:, m])
            np.testing.assert_array_equal(telemetry[f"l_{m}"], report.losses[:, m])
        probs, losses = read_probs_csv(probs_csv_path(out))
        np.testing.assert_array_equal(probs, report.probs)
        np.testing.assert_array_equal(losses, report.losses)

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(experts=3, rounds=25, kernel="cyclic", loss_gen="gaussian-drift", seed=12),
            # every round is degenerate, so the eta column is inf throughout
            ExperimentConfig(experts=2, rounds=6, loss_gen="constant", loss_params={"value": -0.1}),
            ExperimentConfig(
                experts=4, rounds=30, kernel="switching", seed=5,
                loss_params={"offset": -1e6, "scale": 1e-3},
            ),
        ],
    )
    def test_bytes_match_per_cell_rendering(self, tmp_path, config):
        report = run_experiment(config)
        out = tmp_path / "run.csv"
        emit_csv(report, out)
        emit_probs_csv(report, probs_csv_path(out))
        table = np.column_stack([getattr(report, name) for name in CSV_COLUMNS[1:]])
        assert out.read_bytes() == _per_cell_csv(CSV_COLUMNS, table)
        experts = config.experts
        header = ["t"] + [f"p_{m}" for m in range(experts)] + [f"l_{m}" for m in range(experts)]
        telemetry = np.hstack([report.probs, report.losses])
        assert probs_csv_path(out).read_bytes() == _per_cell_csv(header, telemetry)

    def test_write_csv_matches_savetxt(self, tmp_path):
        # np.savetxt is the reference only here: the writer must give its bytes
        def savetxt_bytes(header, table, fmt):
            ref = tmp_path / "ref.csv"
            with open(ref, "w", newline="") as fh:
                np.savetxt(fh, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")
            return ref.read_bytes()

        edge = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324,
                1.7976931348623157e308, -1.7976931348623157e308, 3.0, -2.0, 1e16, 2.0**53, 1 / 3]
        rng = np.random.default_rng(4)
        tables = [
            np.array([edge]),
            rng.choice(edge, (2000, 11)),  # three blocks of rows
            rng.choice(edge, (70, 129)),  # a probabilities file of M=64: blocks of 63 rows
            rng.standard_normal((3, 1)),
            np.empty((0, 11)),
        ]
        for table in tables:
            header = [f"c{j}" for j in range(table.shape[1])]
            out = tmp_path / "out.csv"
            _write_csv(out, header, table)
            assert out.read_bytes() == savetxt_bytes(header, table, "%.17g"), table.shape
        # the sweep summary: an object table, each seed exact up to 2^64 - 1
        fmt = ("%d", "%.17g", "%.17g", "%.17g", "%d")
        summary = np.array(
            [(0, -0.0, math.inf, math.nan, 0), (2**60 + 1, 1e300, 5e-324, 3.0, 1), (2**64 - 1, 0.5, 1.0, 2.0, 1)],
            dtype=object,
        )
        header = ["seed", "exp_regret", "bound_var", "bound_range", "within_bound"]
        _write_csv(tmp_path / "summary.csv", header, summary, fmt=fmt)
        written = (tmp_path / "summary.csv").read_bytes()
        assert written == savetxt_bytes(header, summary, fmt)
        assert written.splitlines()[-1].startswith(b"18446744073709551615,")

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


@pytest.fixture
def pools_made(monkeypatch):
    """The workers asked of each process pool, which runs the tasks in this process."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return made


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

    def test_large_seeds_keep_their_exact_digits(self, tmp_path):
        seeds = [2**64 - 1, 2**53 + 1]
        base = ExperimentConfig(experts=2, rounds=5)
        summary = run_sweep(base, seeds, tmp_path / "sweep", jobs=1)
        rows = summary.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(2**53 + 1), str(2**64 - 1)]
        for seed in seeds:
            assert (tmp_path / "sweep" / f"seed_{seed}.csv").exists()

    def test_repeated_seed_rejected(self, tmp_path):
        base = ExperimentConfig(experts=2, rounds=5)
        with pytest.raises(ConfigError, match="distinct"):
            run_sweep(base, [1, 1, 2], tmp_path / "sweep", jobs=1)
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("jobs", [-3, 0, True, "2", 2.5])
    def test_jobs_must_be_a_positive_integer(self, tmp_path, jobs):
        base = ExperimentConfig(experts=2, rounds=5)
        with pytest.raises(ConfigError, match="jobs must be"):
            run_sweep(base, [1, 2], tmp_path / "sweep", jobs=jobs)
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "jobs, seeds, cpus, pools",
        [(64, [1, 2], 1, [2]), (4, [1], 1, []), (None, [1, 2], 64, [2]), (None, [1, 2, 3], 2, [2])],
    )
    def test_workers_capped_at_seed_count(self, tmp_path, monkeypatch, pools_made, jobs, seeds, cpus, pools):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        base = ExperimentConfig(experts=2, rounds=5)
        summary = run_sweep(base, seeds, tmp_path / "sweep", jobs=jobs)
        assert pools_made == pools
        assert len(read_csv_columns(summary)["seed"]) == len(seeds)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "seeds, message",
        [([0, 2**64], "seed must be a 64-bit unsigned integer"), ([0, -1], "seed must be >= 0")],
        ids=["past-64-bits", "negative"],
    )
    def test_bad_seed_refused_before_any_work(self, tmp_path, pools_made, jobs, seeds, message):
        out_dir = tmp_path / "sweep"
        with pytest.raises(ConfigError, match=message):
            run_sweep(ExperimentConfig(experts=2, rounds=5), seeds, out_dir, jobs=jobs)
        assert pools_made == []
        assert not out_dir.exists()  # no directory, so no CSV

    def test_parallel_matches_serial(self, tmp_path):
        base = ExperimentConfig(experts=2, rounds=30, kernel="fixed", seed=0)
        serial = run_sweep(base, [4, 5], tmp_path / "serial", jobs=1)
        parallel = run_sweep(base, [4, 5], tmp_path / "parallel", jobs=2)
        assert serial.read_bytes() == parallel.read_bytes()


class TestVerification:
    def test_seed_must_be_a_nonnegative_integer(self):
        for seed in ("x", 1.5, -1):
            with pytest.raises(ConfigError, match="seed must be"):
                run_verification(seed=seed, emit=lambda line: None)

    def test_desk_scale_suite_passes(self):
        lines = []
        assert run_verification(seed=0, emit=lines.append)
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)
