#!/usr/bin/env python3
"""Run every workload, each in a fresh process, and write one result file.

    python3 perfbench/run_all.py --seed 0 --seconds 25 --out results.json

Each workload runs untraced (end-to-end metrics) and then traced
(per-layer metrics), every run in its own `run.py` process, so caches and
peak memory do not leak from one workload into the next.  Every metric is
printed by name with its unit; the result file holds the same values with
the stamp of each run.  Compare two result files with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_TIMEOUT_S = 600


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    notes = {"stamp": None, "info": None, "failures": []}
    for line in lines[:-1]:
        if line.startswith("# stamp "):
            notes["stamp"] = json.loads(line[len("# stamp "):])
        elif line.startswith("# info "):
            notes["info"] = json.loads(line[len("# info "):])
        elif line.startswith("# FAILED "):
            notes["failures"].append(line[len("# FAILED "):])
    result.update(notes)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", default=None, help="result file to write (JSON)")
    args = ap.parse_args(argv)

    out = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for name in workloads.WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_one(name, args.seed, args.seconds, trace)
            all_correct &= res["correct"]
            entry[key] = res["metrics"]
            entry[f"{key}_run"] = {k: res[k] for k in
                                   ("correct", "attempted", "failed", "stamp", "info", "failures")}
            print(f"{name}  [{key}]  correct={res['correct']}  "
                  f"attempted={res['attempted']}  failed={res['failed']}  info={res['info']}")
            for line in res["failures"]:
                print(f"  FAILED {line}")
            for metric, val in res["metrics"].items():
                print(f"  {metric:44} {val['value']:>14.6g} {val['unit']}")
        out["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
