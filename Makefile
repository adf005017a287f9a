# Convenience targets; everything works offline.

PY ?= python

.PHONY: install test bench fleet chaos chaos-resume chaos-recover chaos-stream stream diff-trace net fsck examples figures clean check lint

install:
	$(PY) -m pip install -e . || $(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# Static communication analysis + trace linting over the shipped
# programs and reference traces (see docs/STATIC_ANALYSIS.md).
check:
	$(PY) -m pytest tests/pilotcheck -q

# Style/defect linters (same commands the CI lint job runs; requires
# ruff and mypy on PATH).
lint:
	ruff check src/repro
	mypy

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -s

# Rank-count scaling of the coroutine scheduler on the fleet app, up to
# 1001 ranks in one process (see docs/ARCHITECTURE.md).
# Writes benchmarks/out/BENCH_ranks.json.
fleet:
	$(PY) -m pytest benchmarks/test_ranks.py -q -s

# Seeded fault-injection scenarios through the whole log pipeline
# (crash -> salvage -> merge -> convert -> render); see docs/robustness.md.
chaos:
	$(PY) -m pytest tests/chaos -q

# Crash -> restart -> byte-identical recovery: the journal/checkpoint
# round trip (see "Durability & recovery" in docs/robustness.md).
chaos-resume:
	$(PY) -m pytest tests/chaos/test_resume.py -q

# Crash -> recover *in-run*: sender-based message logging replays the
# crashed rank while the survivors keep running (see "In-run localized
# recovery" in docs/robustness.md).
chaos-recover:
	$(PY) -m pytest tests/chaos/test_msglog.py tests/chaos/test_watchdog_recovery.py -q

# Live streaming smoke: the service's unit tests (follower, fold,
# tiles, HTTP endpoints) — see "Live monitoring" in docs/robustness.md.
stream:
	$(PY) -m pytest tests/stream -q

# Live-view convergence under chaos: rank crashes, a silently killed
# engine, torn tails, service kill/restart — the final live tiles must
# be byte-identical to the batch pipeline's.
chaos-stream:
	$(PY) -m pytest tests/chaos/test_stream.py -q

# Fault localization: inject -> replay clean -> diff -> blame matrix
# (see "Fault localization" in docs/robustness.md).  Ad-hoc use:
#   pilotcheck diff-trace good.clog2 bad.clog2
diff-trace:
	$(PY) -m pytest tests/chaos/test_tracediff.py tests/tracediff -q

# MP net conformance: the predicted communication net vs the observed
# one, over every shipped app and the known-divergent runs (see "MP net
# & conformance" in docs/STATIC_ANALYSIS.md).  Ad-hoc use:
#   pilotcheck net app.py:main --trace run.clog2 --svg net.svg
net:
	$(PY) -m pytest tests/mpnet tests/pilotcheck/test_valueflow.py -q

# Scan (and optionally repair) a log: make fsck FILE=run.clog2
fsck:
	$(PY) -m repro.mpe fsck $(FILE)

# The five example scripts, end to end (artifacts under examples/out/).
examples:
	$(PY) examples/quickstart.py
	$(PY) examples/lab2_visual.py
	$(PY) examples/thumbnail_pipeline.py 48
	$(PY) examples/debug_parallelism.py
	$(PY) examples/deadlock_detector.py
	$(PY) examples/classroom_walkthrough.py

# Regenerate every paper figure/table and the recorded outputs.
figures:
	$(PY) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PY) -m pytest benchmarks/ --benchmark-only -s 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
