#!/usr/bin/env python3
"""Compare result files of run_all.py metric by metric.

    python3 perfbench/compare.py --base before.json --new after.json
    python3 perfbench/compare.py --base b1.json b2.json b3.json --new a1.json a2.json a3.json

With several files on a side, each metric is compared by its median over
that side's files.  An end-to-end metric regresses when the new median is
worse than the base median by more than the metric's bound in
BENCHMARK.json; per-layer metrics have no bound and are listed with their
change.  Exits 1 when any end-to-end metric regressed or a run was not
correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def medians(results, workload, section):
    values = {}
    for res in results:
        for name, val in res["workloads"].get(workload, {}).get(section, {}).items():
            values.setdefault(name, []).append(val["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def all_correct(results):
    return all(
        entry[f"{section}_run"]["correct"]
        for res in results
        for entry in res["workloads"].values()
        for section in ("end_to_end", "per_layer")
        if f"{section}_run" in entry
    )


def change(base, new):
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - base) / base


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)

    regressions = 0
    for wl in spec["workloads"]:
        name = wl["name"]
        print(f"== {name}")
        b, n = medians(base, name, "end_to_end"), medians(new, name, "end_to_end")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in b or key not in n:
                print(f"  {key:44} missing")
                regressions += 1
                continue
            delta = change(b[key], n[key])
            worse = delta if metric["better"] == "lower" else -delta
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            regressions += verdict != "ok"
            print(f"  {key:44} {b[key]:>12.6g} -> {n[key]:>12.6g} {metric['unit']:6} "
                  f"{delta:+8.1%}  bound {metric['bound']:.0%}  {verdict}")
        b, n = medians(base, name, "per_layer"), medians(new, name, "per_layer")
        for metric in spec["per_layer"]:
            key = metric["name"]
            if key in b and key in n and (b[key] or n[key]):
                print(f"  {key:44} {b[key]:>12.6g} -> {n[key]:>12.6g} {metric['unit']:6} "
                      f"{change(b[key], n[key]):+8.1%}")
    correct = all_correct(base) and all_correct(new)
    if not correct:
        print("some runs were not correct")
    print(f"{regressions} end-to-end regression(s)")
    return 0 if regressions == 0 and correct else 1


if __name__ == "__main__":
    sys.exit(main())
