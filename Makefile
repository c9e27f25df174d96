# Convenience targets; scripts/ci.sh is the canonical gate.

.PHONY: ci test explore bench-explore

ci:
	scripts/ci.sh

test:
	PYTHONPATH=src python -m pytest -x -q

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
	PYTHONPATH=src python -m repro bench --scale smoke \
		--out $$(mktemp -d)
