.PHONY: install test lint lint-graph bench wallbench figures mix pipeline recover chaos shell analyze optimizer shard failover mvcc artifacts clean

PYTHON ?= python
# Run the package from the source tree; `make install` is optional.
export PYTHONPATH := src

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# simlint (always available — stdlib only), then ruff/mypy when
# installed; CI installs and runs both unconditionally.  The simlint
# run includes the interprocedural rules (ATOM/PROTO/ESCAPE) built on
# the shared may-yield call graph.
lint:
	$(PYTHON) -m repro lint --timing
	@if command -v ruff >/dev/null 2>&1; then ruff check src; \
	else echo "ruff not installed; skipped (CI runs it)"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipped (CI runs it)"; fi

# Dump simlint's interprocedural call graph (may-yield set highlighted)
# for triage; CI uploads the same file as the `lint-graph` artifact
# when the lint job fails.
lint-graph:
	$(PYTHON) -m repro lint --dump-graph lint-graph.dot || true
	@echo "wrote lint-graph.dot (render with: dot -Tsvg lint-graph.dot)"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Wall-clock benchmark: every workload for 30 s, untraced, each
# golden-checked (see wallbench/README.md).
wallbench:
	for w in paper-trees mix-si shard-8-sync; do \
		$(PYTHON) wallbench/run.py --workload $$w --seconds 30 --trace 0 || exit 1; \
	done

# Regenerate every paper figure into results/ and print them.
figures:
	$(PYTHON) -m repro figures all

# Multi-client workload mix through the query service.
mix:
	$(PYTHON) -m repro mix --clients 8

# Batch-size sweep over the operator pipeline (TTFR, peak rows,
# limit early exit, mix interleaving) -> results/pipeline_batch_sweep.txt.
pipeline:
	$(PYTHON) benchmarks/bench_pipeline.py

# Crash-recovery fuzz: 40 seeds x 5 crash points = 200 cases, each
# double-run for determinism; exits nonzero on any contract violation.
recover:
	$(PYTHON) -m repro crash fuzz --seeds 40

# Transient-fault chaos: 200 seeded fault-injected mixes (flaky reads,
# lock-timeout storms, governors), each double-run for determinism,
# then the overload sweep -> results/governor_overload.txt.
chaos:
	$(PYTHON) -m repro chaos --cases 200
	$(PYTHON) benchmarks/bench_governor.py

# Collect optimizer statistics (ANALYZE) and persist them through the
# self-hosted statistics database.
analyze:
	$(PYTHON) -m repro analyze

# Cost-based vs. heuristic planner leaderboard over the Figure 10-15
# matrix -> BENCH_optimizer.json + results/optimizer_leaderboard.txt;
# exits nonzero on any semantic mismatch or plan regression.
optimizer:
	$(PYTHON) benchmarks/bench_optimizer.py

# Sharded scaling benchmark (1..32 shards, gated on semantic
# equivalence + >=4x scan speedup at 8 shards) plus the seeded 2PC
# crash/recovery chaos oracle -> results/sharding_scaling.txt.
shard:
	$(PYTHON) benchmarks/bench_sharding.py
	$(PYTHON) -m repro shard chaos --cases 25

# Replication availability benchmark (13-query semantic equivalence vs
# an unreplicated cluster, windowed throughput through a primary kill,
# 200 sync + 50 async seeded chaos kills) plus the failover chaos CLI
# -> BENCH_replication.json + results/replication_availability.txt.
failover:
	$(PYTHON) benchmarks/bench_replication.py
	$(PYTHON) -m repro failover chaos --cases 25

# Snapshot isolation vs strict 2PL on the same contended mix, gated on
# zero reader lock waits, SI throughput > 2PL and identical committed
# end states -> BENCH_mvcc.json + results/mvcc_mix.txt.
mvcc:
	$(PYTHON) benchmarks/bench_mvcc.py

shell:
	$(PYTHON) -m repro shell

serve:
	$(PYTHON) -m repro serve

artifacts: ## the final run the reproduction ships with
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Caches and untracked outputs only: the committed results/ tables are
# what the golden and BENCH checks compare against.
clean:
	rm -rf .pytest_cache .hypothesis wallbench/out lint-graph.dot
	find . -name __pycache__ -type d -exec rm -rf {} +
	-git clean -fq -- results
