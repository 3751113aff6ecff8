.PHONY: install test acceptance bench

install:
	pip install -e . --no-build-isolation

test:
	python3 -m pytest -q

acceptance:
	python3 -m pytest tests/test_acceptance.py -v -s

bench:
	python3 bench/report.py
