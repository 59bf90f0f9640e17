"""The unused-import lint of scripts/check_imports.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_imports.py"
_spec = importlib.util.spec_from_file_location("check_imports", SCRIPT)
check_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_imports)


def test_flags_only_unused_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re\n"
        "from typing import Dict, List\n"
        "from .gf import FqCtx, power\n"
        "def f(a: 'FqCtx') -> Dict:\n"
        "    return os.getcwd()\n"
    )
    assert check_imports.unused_imports(module) == [(3, "re"), (4, "List"), (5, "power")]


def test_library_has_no_unused_import():
    assert check_imports.main() == 0


def test_checks_library_tests_and_scripts():
    paths = check_imports.checked_paths()
    folders = {path.parent.relative_to(check_imports.ROOT).as_posix() for path in paths}
    assert folders == {"src/monogenic", "tests", "scripts"}
    assert Path(__file__).resolve() in paths and SCRIPT in paths
    assert all(path.name != "__init__.py" for path in paths)


def test_flags_an_export_only_tests_read(tmp_path):
    package = tmp_path / "src" / "monogenic"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import (\n"
        "    helper,\n"
        "    planted,\n"
        "    run,\n"
        ")\n"
    )
    (package / "mod.py").write_text(
        "def helper():\n"
        "    return 1\n"
        "def planted():\n"
        "    return 2\n"
        "def run():\n"
        "    return helper()\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "go.py").write_text("from monogenic import run\nrun()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("from monogenic import planted\n")
    assert check_imports.unread_exports(tmp_path) == [(3, "planted")]


def test_library_exports_only_what_runs_reads():
    assert check_imports.unread_exports() == []
