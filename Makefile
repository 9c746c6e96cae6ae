# Developer entry points. CI (.github/workflows/ci.yml) runs `make lint test`.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint lint-baseline test fuzz check benchmarks bench-core

# One run: --flow applies every per-file rule and adds the whole-program
# flow analysis (RL011+), gated on the committed baseline so only *new*
# findings fail.
lint:
	$(PYTHON) -m repro lint src/ tests/ --flow --baseline LINT_baseline.json

# Deliberately re-record the flow baseline (see docs/LINT.md).
lint-baseline:
	$(PYTHON) -m repro lint src/ tests/ --flow \
		--write-baseline LINT_baseline.json

test:
	$(PYTHON) -m pytest -x -q

# Invariant/oracle fuzzing: replay the pinned corpora (generated cases
# plus workload traces) and a small fresh batch (see docs/TESTING.md).
fuzz:
	$(PYTHON) -m repro check --corpus tests/check/corpus.json \
		--trace-corpus tests/traces/corpus --cases 5 --seed 0

check: lint test fuzz

benchmarks:
	$(PYTHON) -m pytest benchmarks/ -q

# Core perf microbenchmarks; compares against the committed baseline and
# fails on a >2x throughput regression (see docs/PERFORMANCE.md).
bench-core:
	$(PYTHON) benchmarks/perf/bench_core.py \
		--baseline BENCH_core.json --output BENCH_core.new.json
