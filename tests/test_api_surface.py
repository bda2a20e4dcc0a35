"""The package names that the benchmark and the acceptance file use must exist.

perfbench/ drives the package through these names, and a name it loses
breaks only benchmark rounds, which the unit suites never run.  So the
benchmark's files and tests/test_acceptance.py are parsed here, not run:
every attribute read off a module of the package and every name imported
from it must resolve.
"""

import ast
import glob
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("cli", "dynamics", "problems", "spectral", "stability")
SOURCES = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))) + [
    os.path.join(ROOT, "tests", "test_acceptance.py")]


def used_names(path):
    """(module, name) for each module.name read and each name imported from the package."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULES):
            yield f"minimaxdyn.{node.value.id}", node.attr
        elif (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "minimaxdyn"):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, ROOT))
def test_names_used_outside_the_package_exist(path):
    used = sorted(set(used_names(path)))
    missing = [f"{module}.{name}" for module, name in used
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_scan_sees_the_benchmark_entry_points():
    used = {pair for path in SOURCES for pair in used_names(path)}
    assert {("minimaxdyn.cli", "main"), ("minimaxdyn.dynamics", "run_discrete"),
            ("minimaxdyn.dynamics", "integrate"), ("minimaxdyn.spectral", "eigencurves")} <= used
