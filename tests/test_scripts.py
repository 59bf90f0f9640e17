"""The two scripts the README names run end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=60)


def test_explore_unit_equation_agrees_with_the_box():
    # the solver's families against the brute-force box of <x, 1 - x> over F_3
    out = _run("explore_unit_equation.py", "-p", "3", "x", "1-x", "--box", "2")
    assert out.returncode == 0, out.stderr
    assert "families agree: True" in out.stdout


def test_bound_table_prints_every_row():
    out = _run("bound_table.py")
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 1 + 3 * 3 * 2  # header, d x (p, q_K) x |S|
