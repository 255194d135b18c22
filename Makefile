# Convenience targets for the reproduction workflow.

.PHONY: install test lint claims claims-write pairs examples table1 trace-demo service-demo check all

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

# The paper's claims as one table (benchmarks/claims.py): evaluate every exact
# row and fail on a false expectation or on a generated region of
# EXPERIMENTS.md / docs/COSTMODEL.md that differs from a fresh --write.
# Timed rows (machine-relative, never committed): --only M1,M2,M3,M3b,M3c,M4.
claims:
	python benchmarks/claims.py --check

# Regenerate those regions in place.
claims-write:
	python benchmarks/claims.py --write

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

all: install test claims
