# Convenience targets; scripts/ci.sh is the canonical gate.

.PHONY: ci test bench bench-parallel bench-memo explore bench-explore

ci:
	scripts/ci.sh

test:
	PYTHONPATH=src python -m pytest -x -q

# Full engine bench against the committed baseline.
bench:
	PYTHONPATH=src python -m repro bench --scale smoke \
		--baseline benchmarks/results/BENCH_engine.json

# Campaign scaling bench (pool vs isolated, jobs sweep).
bench-parallel:
	PYTHONPATH=src python -m repro bench --jobs auto

# Full design-space sweep: 1008 configurations through the analytical
# screening tier, the 16 survivors confirmed with real simulations,
# (IPC, lifetime) Pareto frontier printed at the end.
explore:
	PYTHONPATH=src python -m repro --scale smoke explore \
		--out $$(mktemp -d)/explore

# Explorer leverage bench: times the full sweep, gates the measured
# simulated-instruction saving at 50x over exhaustive simulation, and
# writes BENCH_explore.json (the committed artefact records 63x).
bench-explore:
	PYTHONPATH=src python -m repro bench --explore --scale smoke \
		--out $$(mktemp -d)

# Memoization bench: cold vs cache-served campaign (verified
# byte-identical), gated against the committed artefact.  Wall-clock ratios of the tiny warm pass are noisy, hence
# the generous threshold; correctness is asserted inside the bench.
bench-memo:
	PYTHONPATH=src python -m repro bench --memo --scale smoke \
		--out $$(mktemp -d) \
		--baseline benchmarks/results/BENCH_memo.json --threshold 0.5
