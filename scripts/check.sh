#!/bin/sh
# Repo-wide check: project lint (always) + ruff (when available) + the
# size numbers ROADMAP tracks (code lines of core/ + runtime/ and option
# fields are ratchets) + one smoke-scale setup profile + the tier-1
# test suite + the benchmark harness's own tests.  This is what CI and `make check` run; keep it in
# sync with ROADMAP.md.
set -eu

cd "$(dirname "$0")/.."

echo "== repro.devtools.lint (project rules) =="
PYTHONPATH=src python -m repro.devtools.lint src

echo "== repro.devtools flow analyses (whole-program) =="
PYTHONPATH=src python -m repro.devtools.lint src --flow \
    --baseline analysis-baseline.json --sarif analysis.sarif

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping generic lint =="
fi

# a ratchet like the option-field count below: a PR that grows core/ +
# runtime/ must raise the ceiling here and say why; one that shrinks
# them lowers it in the same commit
MAX_CORE_RUNTIME_LINES=4397
echo "== core + runtime code lines (ROADMAP: net negative is a success metric; ceiling $MAX_CORE_RUNTIME_LINES) =="
core_runtime=$(python scripts/count_code_lines.py src/repro/core src/repro/runtime)
echo "$core_runtime"
if [ "$(echo "$core_runtime" | awk 'END {print $1}')" -gt "$MAX_CORE_RUNTIME_LINES" ]; then
    echo "core + runtime code lines exceed $MAX_CORE_RUNTIME_LINES — growth needs a reason and a raised ceiling in scripts/check.sh" >&2
    exit 1
fi
echo "== all of src/repro =="
python scripts/count_code_lines.py src/repro

# a ratchet, not a report: a PR that adds a knob fails here; one that
# removes a knob lowers the ceiling in the same commit
MAX_OPTION_FIELDS=22
echo "== option fields: SolverOptions + NumericOptions (ROADMAP: fewer knobs; ceiling $MAX_OPTION_FIELDS) =="
PYTHONPATH=src python -c "
import sys
from dataclasses import fields
from repro import SolverOptions
from repro.core.numeric import NumericOptions
n = len(fields(SolverOptions)) + len(fields(NumericOptions))
print(f'{n:6d}  option fields')
sys.exit(f'option fields: {n} > $MAX_OPTION_FIELDS — a new knob needs a reason and a raised ceiling in scripts/check.sh' if n > $MAX_OPTION_FIELDS else 0)"

# informational, no threshold: tier-1 stays timing-free
echo "== setup profile at smoke scale (make profile-setup) =="
python scripts/profile_setup.py cage12 --scale 0.17 --top 8

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

# tier-1 does not collect benchmarks/e2e/test_harness.py, the only guard
# on the surface the frozen benchmark harness patches and reads
echo "== benchmark harness self-test =="
make bench-e2e-selftest
