# Convenience targets; see README.md for details.

.PHONY: install test bench bench-gate bench-serve bench-paper experiments \
	examples serve-smoke columnar-smoke perfbench-smoke all

# Open-loop load profile for bench-serve (docs/serving.md).
SERVE_RATE ?= 2
SERVE_DURATION ?= 30

# Dataset preset for the pipeline bench (tiny keeps CI smoke fast).
BENCH_PRESET ?= small

install:
	pip install -e .

test:
	pytest tests/

# Time the pipeline stages per system and (re)write BENCH_pipeline.json —
# the repo's perf-trajectory baseline.  See DESIGN.md for the schema.
bench:
	PYTHONPATH=src python -m repro bench --preset $(BENCH_PRESET) \
		--repeats 3 --out BENCH_pipeline.json

# Re-bench and gate against the committed baseline without touching it
# (exit 4 on regression; thresholds documented in docs/reports.md).
bench-gate:
	PYTHONPATH=src python -m repro bench --preset $(BENCH_PRESET) \
		--repeats 3 --out .bench-candidate.json --diff BENCH_pipeline.json

# Drive a live `repro serve --no-suite` with the open-loop load
# generator for $(SERVE_DURATION)s and (re)write BENCH_serve.json — the
# service-latency baseline (schema grade10-bench-serve/1).  Gate a later
# run with: python -m repro bench --diff BENCH_serve.json --candidate DOC
bench-serve:
	python scripts/bench_serve.py --rate $(SERVE_RATE) \
		--duration $(SERVE_DURATION) --out BENCH_serve.json

# The paper's table/figure benchmarks (pytest-benchmark timings).
bench-paper:
	pytest benchmarks/ --benchmark-only

# Launch `repro serve` on a tiny suite, scrape /metrics mid-run, stream
# /events, and require a clean SIGTERM shutdown (docs/live-telemetry.md).
serve-smoke:
	python scripts/serve_smoke.py

# Columnar storage smoke: save a tiny run's profile, round-trip it through
# the memmap file byte-for-byte, and check the rebuilt profile's exports
# and invariants (docs/columnar.md).
columnar-smoke:
	PYTHONPATH=src python scripts/columnar_smoke.py

# The repository benchmark's own checks: its unit tests, then short traced
# large-trace and paper-grid runs (exit 0 means every output matched its
# reference digest and every stage wrapper was called; perfbench/README.md).
# Seed 45 of paper-grid samples a ground truth whose difference-array
# cancellation once produced a negative monitoring rate.
perfbench-smoke:
	python -m pytest perfbench/tests -q
	python3 perfbench/run.py --workload large-trace --seed 0 --seconds 5 --trace 1
	python3 perfbench/run.py --workload paper-grid --seed 45 --seconds 5 --trace 1
	python3 perfbench/run.py --workload service-mixed --seed 0 --seconds 5 --trace 1

# Regenerate every paper table/figure at the default preset.
experiments:
	python -m repro experiment all --preset small

examples:
	python examples/quickstart.py
	python examples/characterize_giraph.py small
	python examples/find_sync_bug.py small
	python examples/compare_systems.py pr small
	python examples/characterize_dataflow.py
	python examples/infer_rules.py small
	python examples/report_run.py tiny

all: test bench
