#!/usr/bin/env python3
"""Record the report digests of the default seed into digests.json.

    python3 perfbench/record_digests.py

Reports are deterministic, so a run with the default seed compares the
digest of each of its first tasks with the one recorded here.  Record once
from a commit whose reports are known good, and again only when the
workloads themselves change.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 2


def main() -> int:
    recorded = {}
    for name, cls in workloads.WORKLOADS.items():
        lib = run.import_library()
        workload = cls(lib, random.Random(run.DEFAULT_SEED))
        count = ROUNDS * len(workload.round)
        digests = []
        for index, task in enumerate(itertools.islice(workloads.task_stream(workload), count)):
            out = task.run(None)
            error = workloads.first_failure(task, out)
            if error is not None:
                print(f"{name} task {index} {task.label}: {error}", file=sys.stderr)
                return 1
            digests.append(workloads.digest(task.text(out)))
        recorded[name] = digests
        print(f"{name}: {len(digests)} digests")
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "workloads": recorded}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
