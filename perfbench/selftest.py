#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, untraced and
traced, for every workload; that the correctness gate trips on corrupted
outputs (a search report with a pair dropped, a fit that misses a pair, a
wrong family of x + y = 1, a wrong discriminant, a failing exit code, a
wrong digest, a later run whose output differs from the first); and that
run.py fails without printing a result where the library source is
missing.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7

TINY_ROUNDS = {
    "search": [("quartic", "lin", 3), ("quadratic", "sq", 3)],
    "fit": [(2, 16, 10, 34, ("F2", "A"))],
    "verify": ["disc", "order-eq", "ef"],
    "sym_unit": [("sym", 8), ("unit", 5, 1, 2), ("verify-b",)],
}


def tiny(name):
    lib = run.import_library()
    workload = workloads.WORKLOADS[name](lib, random.Random(SEED))
    workload.round = TINY_ROUNDS[name]
    workload.rounds = 1
    workload.trace_count = len(workload.round)
    return lib, workload


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_metrics_emitted(spec):
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        lib, workload = tiny(name)
        gate = run.Gate(name, SEED)
        best, good, runs, failed, peak_kib = run.measure(workload, gate, seconds=0.01)
        values, _ = run.end_to_end(best, good, runs, failed, peak_kib, setup_s=0.0)
        expect(set(values) == e2e, f"{name}: every end-to-end metric is emitted")
        loops = min(run.LOOPS, len(os.sched_getaffinity(0)))
        expect(failed == 0 and runs == loops * run.MIN_PASSES * len(best),
               f"{name}: each task runs {run.MIN_PASSES} times in each of {loops} loops, "
               "with the same output")
        values, attempted, ok = run.traced(workload, lib, gate)
        expect(set(values) == layers, f"{name}: every per-layer metric is emitted")
        expect(not gate.failures and ok == attempted, f"{name}: tiny tasks pass the gate")


def first_task(workload, kind):
    for slot in workload.round:
        task = workload.make(slot)
        if task.kind == kind:
            return task
    raise LookupError(kind)


def trips(task, out):
    return workloads.first_failure(task, out) is not None


def check_gate_trips():
    _, search = tiny("search")
    task = first_task(search, "search")
    out = task.run(None)
    expect(not trips(task, out), "search: the true report passes")
    report = copy.deepcopy(out[0])
    report["search"]["pairs"].remove([1, 1])
    expect(trips(task, (report, 0, "")), "search: a report with pair (1, 1) dropped fails")
    report = copy.deepcopy(out[0])
    report["search"]["closure_violations"] = [[1, 1]]
    expect(trips(task, (report, 0, "")), "search: a closure violation fails")
    expect(trips(task, (out[0], 1, out[2])), "search: exit code 1 fails")

    _, fit = tiny("fit")
    task = first_task(fit, "fit")
    chosen, residual = task.run(None)
    expect(not trips(task, (chosen, residual)), "fit: the true fit passes")
    expect(trips(task, (chosen[1:], residual)), "fit: a fit with a pattern dropped fails")

    _, verify = tiny("verify")
    task = first_task(verify, "disc")
    out = task.run(None)
    expect(not trips(task, out), "verify: the true disc report passes")
    report = dict(out[0], discriminant="x^11")
    expect(trips(task, (report, 0, "")), "verify: a wrong discriminant fails")

    _, sym_unit = tiny("sym_unit")
    task = first_task(sym_unit, "unit-solve")
    out = task.run(None)
    expect(not trips(task, out), "sym_unit: the true unit-solve report passes")
    report = copy.deepcopy(out[0])
    fams = report["families"]
    i = next(i for i, f in enumerate(fams) if "x" in f)
    x0, _ = workloads._parse_family(fams[i])
    fams[i] = f"({x0}, {x0}) ^ p^k, k>=0"
    expect(trips(task, (report, 0, "")), "sym_unit: a family with x0 + y0 != 1 fails")
    report = copy.deepcopy(out[0])
    dropped = report["families"].pop(i)
    report["family_count"] -= 1
    expect(trips(task, (report, 0, "")),
           f"sym_unit: dropping family {dropped} breaks agreement with brute force")

    gate = run.Gate("search", SEED)
    gate.expected = ["0" * 16]
    search_task = first_task(search, "search")
    out = search_task.run(None)
    expect(not gate.judge(0, search_task, out, None), "a report digest mismatch fails")
    first = search_task.key(out)
    expect(gate.judge_repeat(0, search_task, out, None, first), "a later run with the same output passes")
    expect(not gate.judge_repeat(0, search_task, (out[0], out[1], out[2] + " "), None, first),
           "a later run whose report differs from its first run fails")
    expect(not gate.judge_repeat(0, search_task, (out[0], 1, out[2]), None, first),
           "a later run with another exit code fails")


def check_bare_checkout():
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "fit", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result,
           "run.py without the library source exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics_emitted(spec)
    check_gate_trips()
    check_bare_checkout()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
