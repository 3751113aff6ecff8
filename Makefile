.PHONY: install test acceptance bench

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

acceptance:
	PYTHONPATH=src python3 -m pytest tests/test_acceptance.py -v -s

bench:
	python3 bench/report.py
