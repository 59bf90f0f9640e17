#!/usr/bin/env python3
"""Fail on an unused import in the library, its tests and its scripts.

Usage: python3 scripts/check_imports.py

Reads every src/monogenic/*.py except __init__.py, whose imports are the
package's re-exports, and every tests/*.py and scripts/*.py.  The
benchmark's own modules under perfbench/ are left out: they change only
with the benchmark.  A name an import binds counts as used when the
module reads it anywhere, including inside a string annotation such as
`-> "Poly"`; `from __future__` imports are exempt.  Each unused import is
printed as path:line: name, and any makes the exit code 1.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _annotations(tree):
    """The annotation expressions of a module, function signatures included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    used = set()
    exprs = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    exprs.append(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, name))
    return out


# (directory, file names to skip) of the checked modules
CHECKED = [("src/monogenic", {"__init__.py"}), ("tests", set()), ("scripts", set())]


def checked_paths() -> list:
    return [path for folder, skip in CHECKED
            for path in sorted((ROOT / folder).glob("*.py")) if path.name not in skip]


def main() -> int:
    failed = False
    for path in checked_paths():
        for lineno, name in unused_imports(path):
            print(f"{path.relative_to(ROOT)}:{lineno}: unused import {name}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
