#!/usr/bin/env python3
"""Run one benchmark workload against the library in this checkout.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

With `--trace 0` the seeded task list of the workload (a fixed number of
rounds, see workloads.py) runs untraced in closed loops, one per CPU up to
LOOPS, each a process pinned to its CPU that runs one task at a time, pass
after pass, until `--seconds` have passed; then the end-to-end metrics are
reported.  A task's time is its best over every run in every loop: on a
shared host the same call runs up to twice as slow for stretches of
seconds, on each CPU at other moments, and the best of many runs spread
over both CPUs and the whole measurement moves least from run to run.  With
`--trace 1` a fixed list of tasks from the same stream runs once untraced
and once traced (see tracer.py) in this one process, and the per-layer
metrics are reported; the list does not depend on `--seconds`, so counts
repeat exactly.

Every task passes the correctness gate of workloads.py on its first run
in each loop, and every later run of it must give the same output; for
the default seed the report digests are also compared with those
recorded in digests.json.  Stdout ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The lines before it start with "#": the run stamp, then one line per
failed task and a summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import pickle
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 11
MIN_PASSES = 2
LOOPS = 2  # closed loops run side by side, at most one per CPU
SUBMODULES = ("gf", "funcfield", "bivar", "linalg", "tower", "monorder", "unitgrp",
              "frobsearch", "verify", "parse", "cli")

# the fields each workload uses; building them is part of set-up
WORKLOAD_FIELDS = {
    "search": [(2, 1), (3, 1)],
    "fit": [],
    "verify": [(2, 1), (7, 1)],
    "sym_unit": [(7, 1), (3, 1), (5, 1), (2, 2)],
}


def import_library():
    """A fresh import of the monogenic package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "monogenic" or m.startswith("monogenic.")]:
        del sys.modules[name]
    pkg = importlib.import_module("monogenic")
    if Path(pkg.__file__).resolve().parent != SRC / "monogenic":
        raise ImportError(f"monogenic imported from {pkg.__file__}, not from {SRC}")
    lib = argparse.Namespace(package=pkg)
    for sub in SUBMODULES:
        setattr(lib, sub, importlib.import_module(f"monogenic.{sub}"))
    return lib


def timed_setup(workload_name: str):
    """Median over SETUP_REPEATS of: import the package and build the
    shared field contexts.  Returns (library namespace, seconds)."""
    times = []
    lib = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_library()
        for p, k in WORKLOAD_FIELDS[workload_name]:
            ctx = lib.gf.FqCtx(p, k)
            lib.funcfield.RatFunc.gen(ctx)
        times.append(time.perf_counter() - t0)
    return lib, statistics.median(times)


def git_sha() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside
    a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """Digest of the library source, which names the code under test where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "monogenic").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Gate:
    """Applies each task's check and, for the default seed, the digest
    recorded for the task's position in the stream."""

    def __init__(self, workload_name: str, seed: int):
        self.expected = []
        if seed == DEFAULT_SEED:
            with open(HERE / "digests.json", encoding="utf-8") as fh:
                self.expected = json.load(fh)["workloads"].get(workload_name, [])
        self.failures = []

    def judge(self, index: int, task, out, error) -> bool:
        if error is None:
            error = workloads.first_failure(task, out)
        if error is None and index < len(self.expected):
            got = workloads.digest(task.text(out))
            if got != self.expected[index]:
                error = f"report digest {got} != recorded {self.expected[index]}"
        return self._record(index, task, error)

    def judge_repeat(self, index: int, task, out, error, first_key) -> bool:
        """A later run of a task that passed: its output must be the same."""
        if error is None and task.key(out) != first_key:
            error = "output differs from its first run"
        return self._record(index, task, error)

    def _record(self, index: int, task, error) -> bool:
        if error is not None:
            self.failures.append(f"task {index} [{task.kind}] {task.label}: {error}")
        return error is None


def run_task(task, tracer=None):
    """Run one task; returns (output, error, seconds)."""
    t0 = time.perf_counter()
    try:
        out = task.run(tracer)
        error = None
    except Exception as exc:  # a task that raises is a failed task
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - t0


def passes(tasks, gate: Gate, deadline: float, offset: int = 0):
    """One closed loop: passes over the task list, task after task, starting
    at task `offset`, until every task has run at least MIN_PASSES times and
    the next one would end past `deadline`.  Returns the best time of each
    task, whether each passed every run, and the numbers of runs made and
    failed."""
    best = [math.inf] * len(tasks)
    good = [True] * len(tasks)
    first_key = [None] * len(tasks)
    runs = failed = 0
    while True:
        index = (offset + runs) % len(tasks)
        # after MIN_PASSES, a task runs again only if its best time still fits
        if runs >= MIN_PASSES * len(tasks) and time.perf_counter() + best[index] > deadline:
            break
        task = tasks[index]
        out, error, dt = run_task(task)
        if runs < len(tasks):
            ok = gate.judge(index, task, out, error)
            if ok:
                first_key[index] = task.key(out)
        elif first_key[index] is None:
            ok = False  # failed its first run, where the failure was reported
        else:
            ok = gate.judge_repeat(index, task, out, error, first_key[index])
        good[index] = good[index] and ok
        failed += not ok
        best[index] = min(best[index], dt)
        runs += 1
    return best, good, runs, failed


def _loop_in_child(cpu, tasks, gate, deadline, offset):
    """Fork a process pinned to `cpu` that runs `passes` and sends back its
    result, the gate's failures and its peak RSS; returns (pid, read end).
    Forked, not spawned: the child runs the very tasks the parent drew,
    closures over library objects that do not pickle, and the parent has
    no threads."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns from this block
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as fh:
                try:
                    os.sched_setaffinity(0, {cpu})
                    result = passes(tasks, gate, deadline, offset)
                    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    payload = pickle.dumps((result, gate.failures, peak_kib))
                    code = 0
                except Exception as exc:  # reported by the parent
                    payload = pickle.dumps(f"{type(exc).__name__}: {exc}")
                fh.write(payload)
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def measure(workload, gate: Gate, seconds: float):
    """Runs the workload's task list in one closed loop per CPU, up to
    LOOPS, each loop a process of its own pinned to its CPU, all up to one
    deadline `seconds` away.  A task's time is its best over every run in
    every loop (see the module docstring for why).
    Returns the best time of each task, how many tasks passed every run,
    the numbers of runs made and failed, and the peak RSS in KiB."""
    tasks = workloads.timed_tasks(workload)  # input generation, outside the timed calls
    cpus = sorted(os.sched_getaffinity(0))[:LOOPS]
    deadline = time.perf_counter() + seconds
    if len(cpus) < 2:
        best, good, runs, failed = passes(tasks, gate, deadline)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return best, sum(good), runs, failed, peak_kib
    children = []
    try:
        for n, cpu in enumerate(cpus):
            offset = n * len(tasks) // len(cpus)  # loops start apart in the list
            children.append(_loop_in_child(cpu, tasks, gate, deadline, offset))
        results = []
        while children:
            pid, read_fd = children[0]
            with os.fdopen(read_fd, "rb") as fh:
                payload = fh.read()
            os.waitpid(pid, 0)
            children.pop(0)
            results.append(pickle.loads(payload) if payload else "no result")
    finally:
        for pid, read_fd in children:  # only after an error: stop what is left
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    for cpu, res in zip(cpus, results):
        if isinstance(res, str):
            raise RuntimeError(f"the loop on CPU {cpu} failed: {res}")
        gate.failures.extend(f"(CPU {cpu}) {line}" for line in res[1])
    best = [min(times) for times in zip(*(res[0][0] for res in results))]
    good = [all(oks) for oks in zip(*(res[0][1] for res in results))]
    runs = sum(res[0][2] for res in results)
    failed = sum(res[0][3] for res in results)
    return best, sum(good), runs, failed, max(res[2] for res in results)


def end_to_end(best, good, runs, failed, peak_kib, setup_s):
    """Metrics over the best time of each task of the list.  The list holds
    too few tasks for a percentile with ten tasks beyond it, so the tail is
    the 90th percentile, which does not hang on the one slowest task."""
    tail = statistics.quantiles(best, n=10, method="inclusive")[-1] if len(best) > 1 else best[0]
    metrics = {
        "tasks_per_s": good / sum(best),
        "task_s_p50": statistics.median(best),
        "task_s_tail": tail,
        "ok_ratio": 1.0 - failed / runs,
        "setup_s": setup_s,
        "peak_rss_mib": peak_kib / 1024.0,
    }
    info = {"tasks": len(best), "runs": runs, "passes": round(runs / len(best), 2)}
    return metrics, info


def traced(workload, lib, gate: Gate):
    tasks = workloads.trace_tasks(workload)
    plain = []
    for index, task in enumerate(tasks):
        out, error, dt = run_task(task)
        plain.append(dt)
        gate.judge(index, task, out, error)
    tracer = Tracer().install(lib.package)
    timed = []
    ok = 0
    for index, task in enumerate(tasks):
        with tracer.active():
            out, error, dt = run_task(task, tracer)
        timed.append(dt)
        ok += gate.judge(index, task, out, error)
    metrics = tracer.metrics(overhead=sum(timed) / sum(plain))
    return metrics, len(tasks), ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "monogenic" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2

    # BENCHMARK.json names the metrics each mode reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("# stamp " + json.dumps(stamp(args), sort_keys=True), flush=True)
    lib, setup_s = timed_setup(args.workload)
    workload = workloads.WORKLOADS[args.workload](lib, random.Random(args.seed))
    gate = Gate(args.workload, args.seed)
    if args.trace:
        values, attempted, ok = traced(workload, lib, gate)
        section = "per_layer"
        info = {"traced_tasks": attempted}
    else:
        best, good, attempted, failed, peak_kib = measure(workload, gate, args.seconds)
        values, info = end_to_end(best, good, attempted, failed, peak_kib, setup_s)
        ok = attempted - failed
        section = "end_to_end"
    for line in gate.failures:
        print("# FAILED " + line, flush=True)
    print("# info " + json.dumps(info, sort_keys=True), flush=True)
    result = {
        "correct": not gate.failures,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
