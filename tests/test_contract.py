"""The typed-exception contract: what a caller's bad input may raise.

Only ``ConfigError``, ``ValueError``, ``ProtocolError``, ``InvariantViolation``
and ``OutOfClassError`` leave the library, besides ``KeyError`` from
``successor_items`` and ``OSError`` from a file operation; the CLI turns each
into one ``error:`` line and exit status 1.  The rules that decide what a
sequence, a path or a real array is live in ``classhedge.core`` alone.
"""

import argparse
import ast
import builtins
import contextlib
import io
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import classhedge
from classhedge import (
    Aggregator,
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    OutOfClassError,
    ProtocolError,
    RegretReport,
    TransitionKernel,
    best_competitor,
    best_prefix_losses,
    bound_report,
    class_budget,
    cyclic_kernel,
    fixed_kernel,
    gamma_from_budget,
    loss_generator,
    make_kernel,
    run_experiment,
    run_sweep,
    run_verification,
    switching_kernel,
    trajectory_reference,
)
from classhedge.cli import _parser, main
from classhedge.harness import emit_csv, read_csv_columns, read_trace

SRC = Path(classhedge.__file__).parent
BIG = 10**400  # past the double range
TYPED = (ConfigError, ValueError, ProtocolError, InvariantViolation, OutOfClassError)

# A hostile value for any parameter: bools, NaN, infinities, huge ints, strings,
# None, 0-d and object arrays, wrong containers, and nested or ragged lists of
# such leaves (valid ones among them).  No bare small int: a seed of 0 or 1 is
# valid, and would start a whole verification.
LEAVES = [True, False, math.nan, math.inf, -math.inf, BIG, -BIG, None, "", "abc", "1"]
HOSTILE = st.one_of(
    st.sampled_from(LEAVES + [-1, b"1", np.array(3.0), np.array(1), np.array(True), np.array("a"),
                              np.array(None, dtype=object), np.array([1.0, None], dtype=object),
                              {}, {"a": 1}, {(0,): 1.0}, set(), frozenset({1}), [], ()]),
    st.lists(
        st.recursive(st.sampled_from(LEAVES + [0, 1, 0.5]), lambda inner: st.lists(inner, max_size=3), max_leaves=5),
        max_size=3,
    ),
)

LOSSES = [[0.0, 1.0], [1.0, 0.0]]
ONE = {(0,): [((0,), 1.0)]}


def _keyed(key, value) -> dict:
    """{key: value}, for a hashable key; the test cannot build any other mapping."""
    try:
        return {key: value}
    except TypeError:
        assume(False)


def _observe(losses):
    agg = Aggregator(fixed_kernel(2), 1.0)
    agg.probabilities()
    agg.observe(losses)


def _generate(*args):
    return next(loss_generator(*args))


def _sweep(base=ExperimentConfig(2, 3), seeds=(0,), out_dir="sweep", jobs=1):
    return run_sweep(base, seeds, out_dir, jobs)


def _config(**changes):
    return run_experiment(ExperimentConfig(**{"experts": 2, "rounds": 3, **changes}))


# (entry point, parameter) -> the call with that parameter hostile and every other valid
LIBRARY = {
    "Aggregator.kernel": lambda h: Aggregator(h, 1.0),
    "Aggregator.gamma": lambda h: Aggregator(fixed_kernel(2), h),
    "Aggregator.observe": _observe,
    "Aggregator.observe.entry": lambda h: _observe([h, 0.0]),
    "Aggregator.run_round": lambda h: Aggregator(fixed_kernel(2), 1.0).run_round(h, np.random.default_rng(0)),
    "TransitionKernel.name": lambda h: TransitionKernel(h, 1, [(0,)], ONE),
    "TransitionKernel.num_experts": lambda h: TransitionKernel("k", h, [(0,)], ONE),
    "TransitionKernel.classes": lambda h: TransitionKernel("k", 1, h, ONE),
    "TransitionKernel.class": lambda h: TransitionKernel("k", 1, [h], ONE),
    "TransitionKernel.successors": lambda h: TransitionKernel("k", 1, [(0,)], h),
    "TransitionKernel.row": lambda h: TransitionKernel("k", 1, [(0,)], {(0,): h}),
    "TransitionKernel.row-key": lambda h: TransitionKernel("k", 1, [(0,)], _keyed(h, [((0,), 1.0)])),
    "TransitionKernel.successor": lambda h: TransitionKernel("k", 1, [(0,)], {(0,): [(h, 1.0)]}),
    "TransitionKernel.weight": lambda h: TransitionKernel("k", 1, [(0,)], {(0,): [((0,), h)]}),
    "TransitionKernel.init_weights": lambda h: TransitionKernel("k", 1, [(0,)], ONE, h),
    "TransitionKernel.init_weight": lambda h: TransitionKernel("k", 1, [(0,)], ONE, {(0,): h}),
    "TransitionKernel.init_class": lambda h: TransitionKernel("k", 1, [(0,)], ONE, _keyed(h, 1.0)),
    "from_dense.name": lambda h: TransitionKernel.from_dense(h, 1, [(0,)], [[1.0]]),
    "from_dense.num_experts": lambda h: TransitionKernel.from_dense("k", h, [(0,)], [[1.0]]),
    "from_dense.classes": lambda h: TransitionKernel.from_dense("k", 1, h, [[1.0]]),
    "from_dense.class": lambda h: TransitionKernel.from_dense("k", 1, [h], [[1.0]]),
    "from_dense.matrix": lambda h: TransitionKernel.from_dense("k", 1, [(0,)], h),
    "from_dense.entry": lambda h: TransitionKernel.from_dense("k", 1, [(0,)], [[h]]),
    "from_dense.init_weights": lambda h: TransitionKernel.from_dense("k", 1, [(0,)], [[1.0]], h),
    "successor_items": lambda h: cyclic_kernel(2).successor_items(h),
    "budget_bound": lambda h: fixed_kernel(2).budget_bound(h),
    "best_competitor.kernel": lambda h: best_competitor(h, LOSSES),
    "best_competitor.losses": lambda h: best_competitor(fixed_kernel(2), h),
    "best_competitor.entry": lambda h: best_competitor(fixed_kernel(2), [[h, 0.0]]),
    "best_prefix_losses.kernel": lambda h: best_prefix_losses(h, LOSSES),
    "best_prefix_losses.losses": lambda h: best_prefix_losses(cyclic_kernel(2), h),
    "bound_report.w_budget": lambda h: bound_report(h, [[0.5, 0.5]], [[0.0, 1.0]]),
    "bound_report.probs": lambda h: bound_report(2.0, h, [[0.0, 1.0]]),
    "bound_report.prob": lambda h: bound_report(2.0, [[h, 0.5]], [[0.0, 1.0]]),
    "bound_report.losses": lambda h: bound_report(2.0, [[0.5, 0.5]], h),
    "class_budget.kernel": lambda h: class_budget(h, [(0,)]),
    "class_budget.competitor": lambda h: class_budget(cyclic_kernel(2), h),
    "class_budget.step": lambda h: class_budget(cyclic_kernel(2), [(0, 1), h]),
    "cyclic_kernel": cyclic_kernel,
    "fixed_kernel": fixed_kernel,
    "switching_kernel.num_experts": lambda h: switching_kernel(h, 0.1),
    "switching_kernel.switch_weight": lambda h: switching_kernel(2, h),
    "gamma_from_budget": gamma_from_budget,
    "loss_generator.name": lambda h: _generate(h, 2, None, np.random.default_rng(0)),
    "loss_generator.num_experts": lambda h: _generate("iid-uniform", h, None, np.random.default_rng(0)),
    "loss_generator.params": lambda h: _generate("iid-uniform", 2, h, np.random.default_rng(0)),
    "loss_generator.param": lambda h: _generate("adversarial-switching", 2, {"period": h}, np.random.default_rng(0)),
    "loss_generator.rng": lambda h: _generate("iid-uniform", 2, None, h),
    "make_kernel.name": lambda h: make_kernel(h, 2),
    "make_kernel.num_experts": lambda h: make_kernel("cyclic", h),
    "make_kernel.params": lambda h: make_kernel("switching", 2, h),
    "make_kernel.param": lambda h: make_kernel("switching", 2, {"switch_weight": h}),
    "run_experiment": run_experiment,
    **{f"ExperimentConfig.{f.name}": (lambda name: lambda h: _config(**{name: h}))(f.name)
       for f in fields(ExperimentConfig)},
    "ExperimentConfig.kernel_param": lambda h: _config(kernel="switching", kernel_params={"switch_weight": h}),
    "ExperimentConfig.loss_param": lambda h: _config(loss_params={"scale": h}),
    "run_sweep.base": lambda h: _sweep(base=h),
    "run_sweep.seeds": lambda h: _sweep(seeds=h),
    "run_sweep.seed": lambda h: _sweep(seeds=[h]),
    "run_sweep.out_dir": lambda h: _sweep(out_dir=h),
    "run_sweep.jobs": lambda h: _sweep(jobs=h),
    "run_verification.seed": lambda h: run_verification(h, lambda line: None),
    "run_verification.emit": lambda h: run_verification(0, h),
    "trajectory_reference.kernel": lambda h: trajectory_reference(h, LOSSES, 1.0),
    "trajectory_reference.losses": lambda h: trajectory_reference(fixed_kernel(2), h, 1.0),
    "trajectory_reference.gamma": lambda h: trajectory_reference(fixed_kernel(2), LOSSES, h),
    # records and exception types check nothing when made, and must raise nothing
    "RegretReport": lambda h: RegretReport(*[h] * len(fields(RegretReport))),
    **{name: getattr(classhedge, name) for name in ("ConfigError", "InvariantViolation", "OutOfClassError",
                                                    "ProtocolError")},
}
# what a parameter may raise besides the typed errors
EXTRA = {"successor_items": (KeyError,), "run_experiment": (OSError,), "ExperimentConfig.out": (OSError,),
         "run_sweep.out_dir": (OSError,)}

# CLI texts: what a flag or a config file may say.  Integer flags take only
# integer texts, the rest argparse refuses itself; "0" is left out, a valid seed.
# Each flag is given as --flag=text, so argparse reads a text such as "-inf" as its value.
BIG_TEXT = str(BIG)
TEXTS = ["nan", "inf", "-inf", "1e400", BIG_TEXT, "-" + BIG_TEXT, "true", "false", "", "None", "[1, 2]",
         "[[1], [2, 3]]", "{}", "abc", "-1", "0:" + BIG_TEXT, "0,0", "a:b", ":"]
INTS = ["-1", BIG_TEXT, "-" + BIG_TEXT]
RUN = ["--experts", "2", "--rounds", "3"]
SWEEP = ["sweep", *RUN, "--seeds", "0", "--out-dir", "sweep", "--jobs", "1"]
CLI = {
    **{f"run {flag}": (INTS, (lambda flag: lambda t: ["run", *RUN, f"{flag}={t}"])(flag))
       for flag in ("--experts", "--rounds", "--seed")},
    **{f"run {flag}": (TEXTS, (lambda flag: lambda t: ["run", *RUN, f"{flag}={t}"])(flag))
       for flag in ("--gamma", "--out", "--kernel-param", "--loss-param")},
    "run --kernel-param switch_weight": (TEXTS, lambda t: ["run", *RUN, "--kernel", "switching",
                                                           f"--kernel-param=switch_weight={t}"]),
    "run --loss-param scale": (TEXTS, lambda t: ["run", *RUN, f"--loss-param=scale={t}"]),
    "run --config": (TEXTS, lambda t: ["run", f"--config={t}"]),
    **{f"sweep {flag}": (INTS if flag == "--jobs" else TEXTS,
                         (lambda flag: lambda t: [*SWEEP, f"{flag}={t}"])(flag))
       for flag in ("--seeds", "--out-dir", "--jobs", "--gamma")},
    "verify --seed": (INTS, lambda t: ["verify", f"--seed={t}"]),
    "bounds --csv": (TEXTS, lambda t: ["bounds", f"--csv={t}"]),
}
CONFIG_KEYS = [f.name for f in fields(ExperimentConfig)] + ["kernel_param.switch_weight", "loss_param.scale"]
# a trace entry that no run writes: a string, an object, NaN, inf, a bool, a ragged or 3-D table, nothing
TRACE_ENTRIES = [np.array("abc"), np.array(None, dtype=object), np.array(math.nan), np.array(math.inf),
                 np.array(True), np.array([[1, 2], [3]], dtype=object), np.zeros((3, 2, 2)), np.array([]),
                 np.array(-1.0), np.array([["1", "2"]] * 3)]


def _cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_every_public_callable_and_subcommand_is_driven():
    # the kernel's own methods are driven besides its constructor
    driven = {name.split(".")[0] for name in LIBRARY} - {"from_dense", "successor_items", "budget_bound"}
    assert driven == set(classhedge.__all__)
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {name.split()[0] for name in CLI} == set(commands)


@given(data=st.data())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_only_documented_exceptions_escape(data, tmp_path, monkeypatch):
    # one working directory for every example: a relative out or out_dir lands here
    monkeypatch.chdir(tmp_path)
    kind = data.draw(st.sampled_from(["library", "cli", "config", "trace"]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a kernel with an expert left out warns
        if kind == "library":
            name = data.draw(st.sampled_from(sorted(LIBRARY)))
            try:
                LIBRARY[name](data.draw(HOSTILE))
            except TYPED + EXTRA.get(name, ()):
                pass
            return
        if kind == "cli":
            texts, argv = CLI[data.draw(st.sampled_from(sorted(CLI)))]
            argv = argv(data.draw(st.sampled_from(texts)))
        elif kind == "config":
            key = data.draw(st.sampled_from(CONFIG_KEYS))
            Path("run.cfg").write_text(f"experts = 2\nrounds = 3\n{key} = {data.draw(st.sampled_from(TEXTS))}\n")
            argv = data.draw(st.sampled_from([["run"], ["sweep", "--seeds", "0", "--out-dir", "sweep"]]))
            argv = [*argv, "--config", "run.cfg"]
        else:
            if not Path("t.csv").exists():
                assert _cli(["run", *RUN, "--out", "t.csv", "--trace"])[0] == 0
                Path("t.trace.npz").rename("valid.npz")
            with np.load("valid.npz") as valid:
                trace = dict(valid)
            trace[data.draw(st.sampled_from(sorted(trace)))] = data.draw(st.sampled_from(TRACE_ENTRIES))
            with open("t.trace.npz", "wb") as fh:
                np.savez(fh, **trace)
            argv = ["bounds", "--csv", "t.csv"]
        code, err = _cli(argv)
    assert code == 0 or (code == 1 and err.count("\n") == 1 and err.startswith("error: ")), (argv, code, err)


# --- the holes the gates closed, one case each --------------------------------

ZERO_D = np.array(3.0)  # passes isinstance(x, Iterable), then refuses to iterate


@pytest.fixture
def no_open(monkeypatch):
    """``open`` fails the test: an int path must be refused before any descriptor is opened."""

    def refuse(*args, **kwargs):
        pytest.fail(f"open{args} was called")

    monkeypatch.setattr(builtins, "open", refuse)


@pytest.mark.parametrize("classes", [None, True, 2.5, 3, ZERO_D], ids=["none", "bool", "float", "int", "0-d"])
@pytest.mark.parametrize(
    "build",
    [lambda classes: TransitionKernel("d", 2, classes, {}),
     lambda classes: TransitionKernel.from_dense("d", 2, classes, np.eye(2))],
    ids=["constructor", "from_dense"],
)
def test_kernel_classes_must_be_a_sequence(build, classes):
    with pytest.raises(ConfigError, match="^classes must be a sequence of classes, got "):
        build(classes)


@pytest.mark.parametrize(
    "call",
    [lambda: class_budget(fixed_kernel(2), ZERO_D),
     lambda: fixed_kernel(2).successor_items(ZERO_D),
     lambda: run_sweep(ExperimentConfig(2, 3), ZERO_D, "sweep")],
    ids=["class_budget", "successor_items", "run_sweep"],
)
def test_a_0d_array_is_not_a_sequence(call, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match=r"^(competitor|a class|seeds) must be a sequence of \w+, got array\(3\.\)$"):
        call()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("probs", [BIG, {}], ids=["int-past-double", "dict"])
def test_bound_report_reads_probabilities_as_losses_are_read(probs):
    with pytest.raises(ValueError, match="^probabilities must be real numbers, not object$"):
        bound_report(2, probs, [[0.0, 1.0]])


@pytest.mark.parametrize("out_dir", [None, 7, ["sweep"], 2.5], ids=["none", "int", "list", "float"])
def test_sweep_out_dir_must_be_a_path(out_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="^out_dir must be a str or os.PathLike, got "):
        run_sweep(ExperimentConfig(2, 3), [0], out_dir, jobs=1)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fd", [True, 0, 1, 2])
@pytest.mark.parametrize(
    "read_or_write",
    [lambda report, fd: emit_csv(report, fd),
     lambda report, fd: read_csv_columns(fd),
     lambda report, fd: read_trace(fd, report.rounds)],
    ids=["emit_csv", "read_csv_columns", "read_trace"],
)
def test_an_int_path_opens_no_descriptor(read_or_write, fd, no_open):
    report = run_experiment(ExperimentConfig(2, 3))  # no out: opens nothing
    with pytest.raises(ConfigError, match="^(csv_)?path must be a str or os.PathLike, got "):
        read_or_write(report, fd)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: switching_kernel(BIG, 0.1), "Maximum allowed size exceeded"),
     (lambda: run_verification(0, None), "emit must be of type Callable, got None"),
     (lambda: TransitionKernel("k", 1, [(0,)], {(0,): [((0,), [1.0])]}),
      r"^transition weights must be one real number each, got float64 \(1, 1\)$")],
    ids=["switching-experts-past-double", "verification-emit-none", "weight-a-list"],
)
def test_found_by_the_contract_test(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_cli_seed_range_past_a_list_is_one_error_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = _cli(["sweep", *RUN, f"--seeds=0:{BIG_TEXT}", "--out-dir=sweep"])
    assert (code, err) == (1, f"error: seed range 0:{BIG_TEXT} is too long\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_error_quoting_a_table_is_one_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _cli(["run", *RUN, "--out=t.csv", "--trace"])[0] == 0
    with np.load("t.trace.npz") as trace:
        arrays = dict(trace)
    arrays["w_budget"] = np.zeros((2, 2))
    np.savez("t.trace.npz", **arrays)
    code, err = _cli(["bounds", "--csv=t.csv"])
    assert (code, err) == (1, "error: class budget must be a finite real >= 1, got array([[0., 0.], [0., 0.]])\n")


# --- one module decides -------------------------------------------------------


def test_input_rules_live_in_core():
    # what counts as a caller's sequence or real array is decided by core's gates, and only there
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            if func == "isinstance" and "Iterable" in ast.unparse(node.args[1]):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            dtypes = [ast.unparse(k.value) for k in node.keywords if k.arg == "dtype"]
            if func.endswith("asarray") and set(dtypes) & {"float", "np.float64", "'float'", "'float64'"}:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
