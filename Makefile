# Developer shortcuts.  The offline CI recipe is exactly:
#   pip install -e . && pytest tests/ && pytest benchmarks/ --benchmark-only

.PHONY: install test lint bench bench-compare solve-steps serve route examples sweep all

# worker processes for `make sweep` (kanon experiment --jobs)
JOBS ?= 2
SWEEP_OUT ?= runs/ratio-center
# `make serve` knobs (kanon serve)
PORT ?= 7683
CACHE_DIR ?= runs/service-cache
# `make route` knobs (kanon route): shard fleet behind the router
ROUTER_PORT ?= 7690
SHARDS ?= 127.0.0.1:7683

install:
	pip install -e .

test:
	pytest tests/

# same gate CI runs (needs the CI-only toolchain: pip install -e '.[lint]')
lint:
	ruff check src tests benchmarks
	mypy src/repro

bench:
	pytest benchmarks/ --benchmark-only

# regression guard against the committed baselines (quick mode, numpy
# backend — the profile the baselines were recorded under); refresh a
# baseline by appending `-- --update` semantics via compare_bench directly
bench-compare:
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e9_runtime.py \
		--benchmark-json=bench-e9.json
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e18_parallel_speedup.py \
		--benchmark-json=bench-e18.json
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e21_bitpack_kernel.py \
		--benchmark-json=bench-e21.json
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e22_delta_solve.py \
		--benchmark-json=bench-e22.json
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e23_planner.py \
		--benchmark-json=bench-e23.json
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e24_shard_scaling.py \
		--benchmark-json=bench-e24.json
	REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e25_privacy.py \
		--benchmark-json=bench-e25.json
	python benchmarks/compare_bench.py bench-e9.json \
		--baseline benchmarks/baselines/BENCH_e9.json
	python benchmarks/compare_bench.py bench-e18.json \
		--baseline benchmarks/baselines/BENCH_e18.json
	python benchmarks/compare_bench.py bench-e21.json \
		--baseline benchmarks/baselines/BENCH_e21.json
	python benchmarks/compare_bench.py bench-e22.json \
		--baseline benchmarks/baselines/BENCH_e22.json
	python benchmarks/compare_bench.py bench-e23.json \
		--baseline benchmarks/baselines/BENCH_e23.json
	python benchmarks/compare_bench.py bench-e24.json \
		--baseline benchmarks/baselines/BENCH_e24.json
	python benchmarks/compare_bench.py bench-e25.json \
		--baseline benchmarks/baselines/BENCH_e25.json

# per-step milliseconds of the Theorem 4.2 solve on the solve-cold
# shapes (fails if the replayed release differs from the library's)
solve-steps:
	python benchmarks/solve_steps.py

# anonymization service with a persistent on-disk solution cache
serve:
	python -m repro.cli serve --port $(PORT) --cache-dir $(CACHE_DIR)

# consistent-hash router over running `kanon serve` shards, e.g.:
#   make route SHARDS="127.0.0.1:7691 127.0.0.1:7692 127.0.0.1:7693"
route:
	python -m repro.cli route --port $(ROUTER_PORT) \
		$(foreach shard,$(SHARDS),--shard $(shard))

# resumable ratio sweep on JOBS worker processes; rerun to continue an
# interrupted run (artifacts land in SWEEP_OUT)
sweep:
	python -m repro.cli experiment ratio-center --trials 20 \
		--jobs $(JOBS) --out $(SWEEP_OUT) \
		$(if $(wildcard $(SWEEP_OUT)/trials.jsonl),--resume,)

examples:
	@for f in examples/*.py; do echo "== $$f =="; python $$f > /dev/null && echo OK; done

all: install test bench examples
