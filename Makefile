# Convenience targets for the PNM reproduction.

.PHONY: install test lint loc bench bench-check perf-smoke perf-ab experiments experiments-full faults algebraic watchdog obs smoke examples clean

install:
	pip install -e .

test:
	pytest tests/

# Protocol-invariant linter (see docs/lint.md).
lint:
	python -m repro.lint src/repro

# Python file count and line count of src/ (the size figure each change
# reports against the ROADMAP's code-size aim).
loc:
	@echo "src/: $$(find src -name '*.py' | wc -l) Python files, $$(find src -name '*.py' -exec cat {} + | wc -l) lines"

bench:
	pytest benchmarks/ --benchmark-only

# Gate the recorded benchmark ratios against benchmarks/baseline.json
# (>20% drift fails).  Needs the BENCH_*.json files a bench run leaves.
bench-check:
	python benchmarks/check_regressions.py

# Every perfbench workload for one traced second: fails unless each one's
# JSON result line reports "correct": true (merged verdict equals one
# sink's, one-hop floors hold).  Timings this short are not checked.
perf-smoke:
	python3 benchmarks/check_perf_smoke.py

# Paired timing of the working tree against BASE (any git revision):
# PAIRS alternating pairs of untraced perfbench runs of WORKLOAD, then each
# side's median and quartiles per end-to-end metric and the pairs the
# change won.  Minutes long, so never run in CI.
#   make perf-ab BASE=HEAD [WORKLOAD=cluster-stream SEED=1 PAIRS=10 RUN_SECONDS=30]
WORKLOAD ?= cluster-stream
SEED ?= 1
PAIRS ?= 10
perf-ab:
	@test -n "$(BASE)" || { echo "usage: make perf-ab BASE=<git revision>" >&2; exit 2; }
	python3 benchmarks/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) --seed $(SEED) \
		--pairs $(PAIRS) $(if $(RUN_SECONDS),--seconds $(RUN_SECONDS))

# Regenerate every paper figure + extension at the default (quick) preset.
experiments:
	python -m repro.experiments.cli all --preset quick

# The paper's exact run sizes (5000 runs for Figs. 5/7, 100 for Fig. 6).
experiments-full:
	python -m repro.experiments.cli all --preset full

# Traceback under churn: crashes, repairs, false accusations (docs/faults.md).
faults:
	python -m repro.experiments.cli faults-sweep --preset quick

# Algebraic accumulator vs PNM head-to-head under churn: convergence,
# byte overhead, false accusations (docs/algebraic.md).
algebraic:
	python -m repro.experiments.cli algebraic-sweep --preset quick

# Watchdog overhearing + sink-side fusion: detection latency vs. PNM-only,
# lying-watchdog and collusion scenarios (docs/watchdog.md).
watchdog:
	python -m repro.experiments.cli watchdog-sweep --preset quick

# Observed runs: manifests + metrics + spans, then the text report
# (docs/observability.md).
obs:
	python -m repro.experiments.cli faults-sweep --preset ci --obs-dir obs-artifacts
	python -m repro.experiments.cli service-sweep --preset ci --obs-dir obs-artifacts
	python -m repro.obs report obs-artifacts

# Networked-tier check: a bare and a telemetry-attached 2-shard loopback
# cluster must each merge to a verdict and report byte-identical to one
# in-process sink, the federated snapshot must cover every shard, and no
# shard may be failed over (docs/cluster.md).
smoke:
	python -m repro.cluster smoke

examples:
	python examples/quickstart.py
	python examples/colluding_coverup.py
	python examples/identity_swap_loop.py
	python examples/multi_source_hunt.py
	python examples/traceback_shootout.py
	python examples/field_monitoring.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
