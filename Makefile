.PHONY: install test acceptance bench

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src python3 -m pytest -q

acceptance:
	PYTHONPATH=src python3 -m pytest tests/test_acceptance.py -v -s

bench:
	python3 bench/report.py
