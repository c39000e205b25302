"""The package holds only code that the package runs.

Single-image references and other test-only helpers live in ``oracles.py``
next to the tests. This parses ``src/dffc/*.py`` and fails on a module-level
function or a non-dunder method whose name is never loaded, as an
``ast.Name`` or an ``ast.Attribute``, anywhere in ``src/dffc``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dffc"


def _is_function(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)


def test_every_function_is_used_in_the_package():
    defined: list[tuple[str, str]] = []
    loaded: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if _is_function(node):
                defined.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.name}:{item.lineno}", f"{node.name}.{item.name}")
                    for item in node.body
                    if _is_function(item)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = [f"{where} {name}" for where, name in defined if name.split(".")[-1] not in loaded]
    assert not unused, "defined in src/dffc but never used there: " + ", ".join(unused)
