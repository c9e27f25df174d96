"""Correctness benches and golden digests.

Simulator speed is measured by ``perfbench/`` against a same-host
reference (``BENCHMARK.json``, and the bench leg of ``scripts/ci.sh``).
This package keeps the checks that are not timing comparisons:
:mod:`.golden` produces the content digests that prove two engine
versions compute *identical* results, :mod:`.memo` proves that a
campaign served from the result cache is byte-identical to one
computed cold, and :mod:`.explore` gates the explorer's 50x
simulated-instruction floor.  :mod:`.artifact` writes and reads their
``benchmarks/results/BENCH_<label>.json`` artefacts, produced by
``python -m repro bench --memo`` and ``--explore``.
"""

from .artifact import BENCH_SCHEMA, load_bench, write_bench
from .explore import MIN_INSTRUCTION_SPEEDUP, ExploreBenchError, run_explore_bench
from .golden import GOLDEN_MIX, GOLDEN_POLICIES, compute_golden_digests, simulation_digest
from .memo import MemoBenchError, run_memo_bench

__all__ = [
    "BENCH_SCHEMA",
    "GOLDEN_MIX",
    "GOLDEN_POLICIES",
    "ExploreBenchError",
    "MemoBenchError",
    "MIN_INSTRUCTION_SPEEDUP",
    "compute_golden_digests",
    "load_bench",
    "run_explore_bench",
    "run_memo_bench",
    "simulation_digest",
    "write_bench",
]
