#!/usr/bin/env python3
"""Print log10 of the generator-count bound over a small parameter grid,
showing its monotonicity in d, q_K, and |S|."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monogenic import bound_calculator  # noqa: E402


def main():
    print(f"{'d':>3} {'p':>3} {'q_K':>5} {'|S|':>4}   log10(bound)")
    for d in (2, 3, 4):
        for p, q_K in ((2, 2), (2, 4), (3, 3)):
            for s in (1, 2):
                log10_main = bound_calculator(d, p, q_K, s).to_dict()["log10_main"]
                print(f"{d:>3} {p:>3} {q_K:>5} {s:>4}   {log10_main}")


if __name__ == "__main__":
    main()
