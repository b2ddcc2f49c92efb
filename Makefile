.PHONY: install test lint lint-ratchet lint-bench bench classify-bench telemetry examples all

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -x -q

lint:
	PYTHONPATH=src python -m repro.lint src tests examples benchmarks scripts

lint-ratchet:
	PYTHONPATH=src python -m repro.lint src tests examples benchmarks scripts \
		--ratchet --baseline lint-baseline.json

lint-bench:
	PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_lint_flow.py -q -s

bench:
	PYTHONPATH=src:benchmarks python -m pytest benchmarks/ --benchmark-only -s

classify-bench:
	PYTHONPATH=src:benchmarks python -m pytest \
		benchmarks/bench_classify_throughput.py -q -s

telemetry:
	PYTHONPATH=src python -m repro campaign --days 1 --target 60 \
		--train-samples 80 --export-dir telemetry-out
	python scripts/validate_telemetry.py telemetry-out/telemetry.json
	PYTHONPATH=src python -m repro report --telemetry-file telemetry-out/telemetry.json

examples:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/quickstart.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/evasive_attacks.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/browser_extension.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/feature_importance.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/historical_analysis.py
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python examples/measurement_campaign.py --days 2 --target 150

all: install lint test bench
