#!/usr/bin/env bash
# The byte-identical gate in one command; it stops at the first failure.
#
#   scripts/check.sh
#
# 1. no unused import in src/monogenic, tests or scripts, and no package
#    export that only tests read (scripts/check_imports.py);
# 2. the tier-1 test suite, listing its five slowest tests (the suite's
#    end-to-end time is tracked, and this shows where it goes);
# 3. every bundled scenario report against tests/golden;
# 4. the benchmark self-test;
# 5. a 5 s default-seed run of the search, verify, sym_unit and fit
#    workloads, the four that perfbench/digests.json records: run.py
#    compares their report digests with it and prints "correct": false on
#    any difference or failed task.
# It ends by printing the lines of src/ added and removed against HEAD (in a
# git checkout), or by the last commit when the working tree leaves src/ as
# HEAD has it, and the line total of src/, the size figures each change
# reports.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== unused imports and test-only exports"
python3 scripts/check_imports.py
echo "== tier-1 tests"
python3 -m pytest -q --durations=5
echo "== scenario reports against tests/golden"
python3 scripts/run_all_scenarios.py --check tests/golden
echo "== perfbench self-test"
python3 perfbench/selftest.py
for workload in search verify sym_unit fit; do
    echo "== perfbench $workload, seed 0"
    python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 5 --trace 0 \
        | tail -n 1 \
        | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print("correct: {correct}, attempted: {attempted}, failed: {failed}".format(**result))
sys.exit(0 if result["correct"] and not result["failed"] else 1)
'
done
echo "== all gates passed"
if git rev-parse --verify -q HEAD >/dev/null 2>&1; then
    range=HEAD what="against HEAD"
    if git diff --quiet HEAD -- src && git rev-parse --verify -q HEAD~1 >/dev/null 2>&1; then
        range=HEAD~1..HEAD what="in HEAD~1..HEAD"
    fi
    git diff --numstat "$range" -- src \
        | awk -v what="$what" '{a += $1; r += $2}
            END {printf "== src/ %s: +%d -%d (net %+d)\n", what, a, r, a - r}'
fi
echo "== src/ lines: $(find src -name "*.py" -exec cat {} + | wc -l)"
