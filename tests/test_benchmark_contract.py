"""Every package name the benchmark in perfbench/ resolves still exists.

The benchmark wraps the ``(module, attr)`` pairs of ``LAYER_TARGETS`` in
``perfbench/spans.py``, calls ``ch.<name>`` on the package and imports names
from its modules.  A rename in the package then fails here, in the test
suite, and not only when the benchmark runs.  The scripts are read with
``ast``, not imported, so nothing is run or written under perfbench/.
"""

import ast
import importlib
from pathlib import Path

import pytest

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

