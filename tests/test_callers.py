"""Every public module-level function of ``protfit`` has a caller outside
the tests.

Code that only tests call belongs in ``tests/oracle.py``. A caller is an
identifier in ``src/``, ``scripts/`` or the benchmark under
``perfbench/`` (not its tests), or a part of a name in the benchmark
tracer's ``TARGETS``. The test reads source files without importing them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _program_trees():
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield ast.parse(path.read_text(), filename=str(path))


def _called_names() -> set:
    names = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
                names.update(part for entry in node.value.elts
                             for part in entry.elts[2].value.split("."))
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    called = _called_names()
    assert {"cross_knn", "forward_logits", "main"} <= called
    unused = [f"{path.stem}.{node.name}"
              for path in sorted((ROOT / "src" / "protfit").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in called]
    assert not unused, ("public functions that only tests call; move them to "
                        f"tests/oracle.py: {unused}")
