"""Every package name the benchmark in perfbench/ resolves still exists, and
every function it times still runs.

The benchmark wraps the ``(module, attr)`` pairs of ``LAYER_TARGETS`` in
``perfbench/spans.py``, calls ``ch.<name>`` on the package and imports names
from its modules.  A rename in the package then fails here, in the test
suite, and not only when the benchmark runs.  So does a span whose function
no run calls any more, which the benchmark reports as a layer that takes no
time.  The scripts are read with ``ast``, not imported, so nothing is run or
written under perfbench/.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import classhedge as ch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = {path.name: ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))}


def _layer_targets() -> tuple:
    for node in SCRIPTS["spans.py"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYER_TARGETS")


def _package_names() -> set[tuple[str, str]]:
    """(module, name) for each ``ch.<name>`` and ``from classhedge... import <name>``."""
    found = set()
    for tree in SCRIPTS.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ch":
                found.add(("classhedge", node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("classhedge"):
                found.update((node.module, alias.name) for alias in node.names)
    return found


LAYER_TARGETS = _layer_targets()
PACKAGE_NAMES = sorted(_package_names())


def test_the_scripts_are_found():
    assert {"checks.py", "run.py", "spans.py"} <= set(SCRIPTS)
    assert LAYER_TARGETS and ("classhedge", "trajectory_reference") in PACKAGE_NAMES


@pytest.mark.parametrize("span, module, attr", LAYER_TARGETS, ids=[t[0] + ":" + t[2] for t in LAYER_TARGETS])
def test_layer_target_resolves(span, module, attr):
    owner = importlib.import_module(f"classhedge.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: classhedge.{module}.{attr} is not callable"


@pytest.mark.parametrize("module, name", PACKAGE_NAMES, ids=[f"{m}.{n}" for m, n in PACKAGE_NAMES])
def test_package_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} is gone"


def _entered(run) -> set:
    """The code object of every Python function entered while ``run()`` runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def _readme_loop(rounds: int = 6) -> None:
    """The README quick-start loop on cyclic_kernel(2), then both DPs and bound_report."""
    kernel = ch.cyclic_kernel(2)
    budget = kernel.budget_bound(rounds)
    agg = ch.Aggregator(kernel, ch.gamma_from_budget(budget))
    rng = np.random.default_rng(0)
    table = rng.random((rounds, 2))
    probs = []
    for losses in table:
        probs.append(agg.probabilities())
        agg.sample(rng)
        agg.observe(losses)
    ch.best_competitor(kernel, table)
    ch.best_prefix_losses(kernel, table)
    ch.bound_report(budget, np.array(probs), table)


@pytest.fixture(scope="module")
def entered(tmp_path_factory) -> set:
    out = tmp_path_factory.mktemp("contract") / "run.csv"
    config = ch.ExperimentConfig(experts=2, rounds=6, kernel="cyclic", out=out)
    return _entered(_readme_loop) | _entered(lambda: ch.run_experiment(config))


@pytest.mark.parametrize("span, module, attr", LAYER_TARGETS, ids=[t[0] + ":" + t[2] for t in LAYER_TARGETS])
def test_layer_target_is_entered(entered, span, module, attr):
    owner = importlib.import_module(f"classhedge.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert owner.__code__ in entered, f"{span}: no tiny run calls classhedge.{module}.{attr}"
