"""The package holds only code that the package runs.

Single-image references and other test-only helpers live in ``oracles.py``
next to the tests. This parses ``src/dffc/*.py`` and fails on a module-level
function or a non-dunder method whose name is never loaded, as an
``ast.Name`` or an ``ast.Attribute``, anywhere in ``src/dffc``, and on a
module-level non-dunder name assigned a value that is neither loaded in its
own module nor read from another, as an attribute of a ``dffc`` module name
(``runner.MODES``) or by an import.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dffc"


def _is_function(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(node: ast.AST) -> list[ast.Name]:
    """The names an assignment statement binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        name
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
    ]


def test_every_function_is_used_in_the_package():
    functions: list[tuple[str, str]] = []
    assigned: list[tuple[str, str, str]] = []
    # A function counts as used if its name is loaded anywhere. A module-level
    # name must be loaded in its own module, or read from another as an
    # attribute of a module name or by an import, so a copy left behind where
    # it was moved from is found, and so is a name that shares an attribute
    # name of another object (``log`` and ``np.log``).
    modules = {path.stem for path in SRC.glob("*.py")}
    loaded_in: dict[str, set[str]] = {}
    attributes: set[str] = set()
    module_attributes: set[str] = set()
    imported: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if _is_function(node):
                functions.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.ClassDef):
                functions += [
                    (f"{path.name}:{item.lineno}", f"{node.name}.{item.name}")
                    for item in node.body
                    if _is_function(item) and not _is_dunder(item.name)
                ]
            assigned += [
                (path.name, f"{path.name}:{name.lineno}", name.id)
                for name in _assigned_names(node)
                if not _is_dunder(name.id)
            ]
        names = loaded_in[path.name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    module_attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
    loaded = attributes.union(*loaded_in.values())
    unused = [f"{where} {name}" for where, name in functions if name.split(".")[-1] not in loaded]
    unused += [
        f"{where} {name}"
        for module, where, name in assigned
        if name not in loaded_in[module] | module_attributes | imported
    ]
    assert not unused, "defined in src/dffc but never used there: " + ", ".join(unused)
