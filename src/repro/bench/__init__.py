"""Correctness benches and golden digests.

Simulator speed is measured by ``perfbench/`` against a same-host
reference (``BENCHMARK.json``, and the bench leg of ``scripts/ci.sh``).
This package keeps the checks that are not timing comparisons:
:mod:`.golden` produces the content digests that prove two engine
versions compute *identical* results, and :mod:`.explore` gates the
explorer's 50x simulated-instruction floor.  :mod:`.artifact` writes
and reads its ``benchmarks/results/BENCH_explore.json`` artefact,
produced by ``python -m repro bench``.
"""

from .artifact import BENCH_SCHEMA, load_bench, write_bench
from .explore import MIN_INSTRUCTION_SPEEDUP, ExploreBenchError, run_explore_bench
from .golden import GOLDEN_MIX, GOLDEN_POLICIES, compute_golden_digests, simulation_digest

__all__ = [
    "BENCH_SCHEMA",
    "GOLDEN_MIX",
    "GOLDEN_POLICIES",
    "ExploreBenchError",
    "MIN_INSTRUCTION_SPEEDUP",
    "compute_golden_digests",
    "load_bench",
    "run_explore_bench",
    "simulation_digest",
    "write_bench",
]
