.PHONY: install test acceptance bench bench-ab bench-ab-all

# bench-ab: alternating benchmark runs of AB_BASE and the working tree;
# bench-ab-all: the same on every workload in turn, stopping at the first
# run whose outputs are incorrect
AB_WORKLOAD ?= mc_large
AB_SEED ?= 14
AB_PAIRS ?= 10
AB_SECONDS ?= 20
AB_BASE ?= HEAD

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

acceptance:
	PYTHONPATH=src python3 -m pytest tests/test_acceptance.py -v -s

bench:
	python3 bench/report.py

bench-ab:
	python3 tools/bench_ab.py --workload $(AB_WORKLOAD) --seed $(AB_SEED) --pairs $(AB_PAIRS) --seconds $(AB_SECONDS) --base $(AB_BASE)

bench-ab-all:
	for workload in mc_large exact_enum audit; do \
		python3 tools/bench_ab.py --workload $$workload --seed $(AB_SEED) --pairs $(AB_PAIRS) --seconds $(AB_SECONDS) --base $(AB_BASE) || exit 1; \
	done
