#!/usr/bin/env python3
"""Run every bundled scenario and print a one-line summary per file.

Usage: python3 scripts/run_all_scenarios.py [--json-dir OUT] [--check DIR]
With --json-dir, the full JSON report of each scenario is written there.
With --check, each report's JSON text is compared with DIR/<stem>.report.json
(for example the golden reports in tests/golden); any difference or missing
file is named and makes the exit code 1.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monogenic.cli import run_scenario  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--json-dir", default=None)
    ap.add_argument("--check", default=None, metavar="DIR")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    out_dir = Path(args.json_dir) if args.json_dir else None
    check_dir = Path(args.check) if args.check else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    worst = 0
    mismatches = 0
    for path in sorted((root / "scenarios").glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
        t0 = time.perf_counter()
        report, code = run_scenario(scenario)
        elapsed = time.perf_counter() - t0
        worst = max(worst, code)
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{path.name:28} {status:8} {elapsed:7.2f}s  task={report['task']}")
        name = path.stem + ".report.json"
        text = json.dumps(report, sort_keys=True, indent=2)
        if out_dir:
            (out_dir / name).write_text(text, encoding="utf-8")
        if check_dir:
            expected = check_dir / name
            if not expected.exists():
                print(f"  check: {expected} is missing")
                mismatches += 1
            elif expected.read_text(encoding="utf-8") != text:
                print(f"  check: report differs from {expected}")
                mismatches += 1
    if check_dir:
        print(f"check against {check_dir}: {mismatches} mismatching report(s)")
        if mismatches:
            return 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
