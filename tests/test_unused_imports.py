"""No module imports a name it never uses.

A stdlib-only stand-in for pyflakes' F401 check over ``src/``,
``tests/``, ``benchmarks/`` and ``examples/``.  Package ``__init__.py``
files are skipped (their imports are re-exports), as are
``from __future__`` imports and lines marked ``# noqa: F401`` (an
import kept on purpose, such as a name perfbench patches in the
importing module).  A name counts as used when it is read anywhere in
the module, listed in ``__all__``, or named inside a string annotation.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")


def _annotation_names(node: ast.AST | None) -> set[str]:
    """Names read by an annotation, including those inside strings."""
    names: set[str] = set()
    if node is None:
        return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
        elif isinstance(sub, ast.Name):
            names.add(sub.id)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return used


def unused_imports(path: pathlib.Path, root: pathlib.Path = ROOT) -> list[str]:
    """``"file:line: name"`` (relative to ``root``) for every unused
    import in ``path``."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                rel = path.relative_to(root)
                found.append(f"{rel}:{node.lineno}: {bound}")
    return found


def _scanned_files():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def test_no_unused_imports():
    found = [
        entry for path in _scanned_files() for entry in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scanner_flags_only_unused_names(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import json  # noqa: F401\n"
        "from typing import Mapping, Sequence\n"
        "from collections import OrderedDict\n"
        "__all__ = ['OrderedDict']\n"
        "def f(x: 'Mapping[str, int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(module, tmp_path) == [
        "sample.py:2: os",
        "sample.py:3: osp",
        "sample.py:5: Sequence",
    ]
