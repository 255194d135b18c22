# Convenience targets for the reproduction workflow.

.PHONY: install test lint bench bench-engine bench-wire bench-service bench-circuits cost-atlas pairs examples table1 trace-demo service-demo check all outputs

install:
	pip install -e .

test:
	pytest tests/

# Protocol static analysis (docs/ANALYSIS.md) plus ruff/mypy when
# installed (CI always has them via the dev extras).
lint:
	PYTHONPATH=src python -m repro.cli lint src/repro
	@command -v ruff >/dev/null 2>&1 && ruff check src tests benchmarks \
		|| echo "ruff not installed; skipping"
	@command -v mypy >/dev/null 2>&1 && mypy \
		|| echo "mypy not installed; skipping"

bench:
	pytest benchmarks/ --benchmark-only -s

# Engine throughput sweep (serial vs process pool); see docs/PERFORMANCE.md.
bench-engine:
	python benchmarks/bench_engine.py

# Wire-codec encode/decode throughput per envelope kind; see docs/WIRE.md.
bench-wire:
	python benchmarks/bench_wire.py

# Client-aided service experiment (ingest rate, online B/gate, resharing
# latency under churn + crash) -> BENCH_service.json; see docs/SERVICE.md.
bench-service:
	python benchmarks/bench_service.py

# Circuit-compiler experiment (compile gates/s, slot utilization, the
# 10^4-gate packed inference run) -> BENCH_circuits.json; see docs/CIRCUITS.md.
bench-circuits:
	python benchmarks/bench_circuits.py

# Re-render the extrapolation atlas embedded in docs/COSTMODEL.md from the
# symbolic byte formulas (between the cost-atlas markers).
cost-atlas:
	PYTHONPATH=src python benchmarks/bench_costmodel.py --write

# Alternated parent/change pairs of the end-to-end benchmark: the claimed
# workload and the other three as controls, N seeds each, medians, wins and
# compare.py's verdicts (benchmarks/pairs.py).  BASE is the parent commit.
WORKLOAD ?= core_dot_256
N ?= 10
BASE ?= HEAD

pairs:
	python benchmarks/pairs.py --workload $(WORKLOAD) --pairs $(N) --base $(BASE)

examples:
	for ex in examples/*.py; do echo "== $$ex =="; python $$ex || exit 1; done

table1:
	python -m repro table1

# Traced quickstart-sized run; the written run report (with its trace
# section) goes through the one reader.  Written outside the checkout so
# `make check` leaves the tree clean.
TRACE_DEMO_REPORT := $(or $(TMPDIR),/tmp)/repro_trace_demo.json

trace-demo:
	python -m repro trace --n 6 --epsilon 0.2 --seed 42 --report $(TRACE_DEMO_REPORT)
	python -c "from repro.accounting import loads_report; \
	report = loads_report(open('$(TRACE_DEMO_REPORT)').read()); \
	print('$(TRACE_DEMO_REPORT): version', report['version'], \
	'-', len(report['trace']['spans']), 'spans OK')"

# The service headline: 10^5 client submissions ingested, two aggregate
# epochs evaluated, the threshold key reshared under churn + one crash.
service-demo:
	python -m repro serve --workload statistics --clients 100000 \
		--epochs 2 --churn 0.1 --crash
	python -m repro serve --workload auction --clients 2000 \
		--epochs 2 --churn 0.1 --crash

check: lint test trace-demo

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: install test bench
