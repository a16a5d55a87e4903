"""Every protfit name the benchmark under ``perfbench/`` uses still exists.

The tracer skips a target it cannot find (it is listed as ``absent`` and
its layer reads 0), and a workload only fails on a missing name when it
runs. These tests read the benchmark's source files without importing
them and resolve each name against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def _traced_targets():
    """(module, attribute path) of every entry of tracing.TARGETS."""
    for node in ast.walk(_tree("tracing.py")):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
            return [(entry.elts[1].value, entry.elts[2].value)
                    for entry in node.value.elts]
    raise AssertionError("tracing.py defines no TARGETS")


def _workload_names():
    """(protfit module, attribute) of every ``<module>.<name>`` that
    workloads.py reads from a protfit module it imports."""
    tree = _tree("workloads.py")
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "protfit"
               for alias in node.names}
    return sorted({(f"protfit.{modules[node.value.id]}", node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_traced_targets_exist():
    targets = _traced_targets()
    assert ("protfit.geometry", "cross_knn") in targets
    missing = []
    for module_name, path in targets:
        owner = importlib.import_module(module_name)
        *parents, last = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        # the tracer wraps what the owner itself defines, as here
        if owner is None or vars(owner).get(last) is None:
            missing.append(f"{module_name}.{path}")
    assert not missing, f"traced names gone from protfit: {missing}"


def test_workload_names_exist():
    names = _workload_names()
    assert ("protfit.surface", "generate_surface") in names
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"names the workloads read are gone from protfit: {missing}"
