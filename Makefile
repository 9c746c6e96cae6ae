# Developer entry points. CI (.github/workflows/ci.yml) runs `make test`,
# `make fuzz`, `make benchmarks` and `make bench-core`; its lint job runs
# the `make lint` command itself, with --sarif, as the gate.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint test fuzz check benchmarks bench-core

# One run: --flow applies every per-file rule and adds the whole-program
# flow analysis (RL011+); any finding fails.
lint:
	$(PYTHON) -m repro lint src/ tests/ --flow

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
