#!/usr/bin/env python3
"""Fail on an unused import in the library, its tests and its scripts, and
on a package export that only tests read.

Usage: python3 scripts/check_imports.py

Reads every src/monogenic/*.py except __init__.py, whose imports are the
package's re-exports, and every tests/*.py and scripts/*.py.  The
benchmark's own modules under perfbench/ are left out: they change only
with the benchmark.  A name an import binds counts as used when the
module reads it anywhere, including inside a string annotation such as
`-> "Poly"`; `from __future__` imports are exempt.  Each unused import is
printed as path:line: name.

A name that src/monogenic/__init__.py exports must be read outside the
tests: by the library (its own `def` or `class` line aside), scripts/,
perfbench/, README.md or the acceptance tests.  The test is textual, on
whole words, so a name in a docstring or a tracer target string counts.
Each unread export is printed as path:line: name.  Any finding makes the
exit code 1.
"""

import ast
import re
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


# the readers that keep an export: the library, what runs it, and the
# acceptance criteria
READERS = ["src/monogenic/*.py", "scripts/*.py", "perfbench/*.py", "README.md",
           "tests/test_acceptance.py"]
PACKAGE = "src/monogenic/__init__.py"
_DEFINITION = re.compile(r"\s*(?:def|class)\s+(\w+)")


def _read_words(root: Path) -> set:
    """Every word of the readers, except the name a `def` or `class` line
    defines."""
    words = set()
    for pattern in READERS:
        for path in sorted(root.glob(pattern)):
            if path == root / PACKAGE:
                continue
            for line in path.read_text().splitlines():
                defined = _DEFINITION.match(line)
                if defined:
                    line = line[: defined.start(1)] + line[defined.end(1):]
                words.update(re.findall(r"\w+", line))
    return words


def unread_exports(root: Path = ROOT) -> list:
    """(line, name) of each package export that no reader reads."""
    tree = ast.parse((root / PACKAGE).read_text())
    read = _read_words(root)
    return [(alias.lineno, alias.asname or alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if (alias.asname or alias.name) not in read]


def main() -> int:
    failed = False
    for path in checked_paths():
        for lineno, name in unused_imports(path):
            print(f"{path.relative_to(ROOT)}:{lineno}: unused import {name}")
            failed = True
    for lineno, name in unread_exports():
        print(f"{PACKAGE}:{lineno}: export {name} is read only by tests")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
