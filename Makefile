.PHONY: check lint test bench-e2e bench-e2e-selftest profile-setup profile-numeric

check:
	sh scripts/check.sh

# the project-specific lint (all 6 rules, per-file and whole-program)
# needs only the stdlib, so it always runs; ruff adds the generic rules
# wherever it is installed
lint:
	PYTHONPATH=src python -m repro.devtools.lint src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; generic lint skipped"; \
	fi

test:
	PYTHONPATH=src python -m pytest -x -q

# the repo benchmark declared in BENCHMARK.json: time to solution,
# factor-once/solve-many and per-layer attribution on four workloads
bench-e2e:
	python3 benchmarks/e2e/run.py

# the harness's own tests (smoke-scale workloads, comparison rules)
bench-e2e-selftest:
	python3 -m pytest benchmarks/e2e -q

# where one warm PanguLU.preprocess() spends its time: phase_seconds and
# the cProfile top-15 (cumulative), e.g. `make profile-setup MATRIX=cage12 SCALE=2.0`
MATRIX ?= cage12
SCALE ?= 1.0
profile-setup:
	python scripts/profile_setup.py $(MATRIX) --scale $(SCALE)

# where one warm sequential factorize() spends its time: job build /
# task spans per kernel family / driver remainder, in seconds and us per
# task, then the cProfile top-15, e.g. `make profile-numeric MATRIX=audikw_1`
profile-numeric:
	python scripts/profile_numeric.py $(MATRIX) --scale $(SCALE)
