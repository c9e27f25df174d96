"""Engine benchmark suite: measure, record and gate simulator speed.

Every paper figure is bounded by simulator throughput, so speed is a
tracked number here, not folklore: :mod:`.runner` times workload
construction, raw trace replay and per-policy simulated-cycles-per-
second over a policy x mix matrix, :mod:`.compare` diffs a run against
a committed baseline with a regression threshold, and :mod:`.golden`
produces the content digests that prove two engine versions compute
*identical* results (the guard that keeps optimizations honest).

The canonical artefacts live in ``benchmarks/results/BENCH_<label>.json``
and are produced by ``python -m repro bench``.
"""

from .compare import (
    STATUS_IMPROVEMENT,
    STATUS_MISSING_BASELINE,
    STATUS_OK,
    STATUS_REGRESSION,
    BenchComparison,
    CaseComparison,
    PhaseComparison,
    compare_benches,
    load_bench,
)
from .explore import MIN_INSTRUCTION_SPEEDUP, ExploreBenchError, run_explore_bench
from .golden import GOLDEN_MIX, GOLDEN_POLICIES, compute_golden_digests, simulation_digest
from .memo import MemoBenchError, run_memo_bench
from .parallel import run_parallel_bench
from .runner import BENCH_SCHEMA, BenchMatrix, phase_breakdown, run_bench, write_bench

__all__ = [
    "BENCH_SCHEMA",
    "BenchComparison",
    "BenchMatrix",
    "CaseComparison",
    "GOLDEN_MIX",
    "GOLDEN_POLICIES",
    "ExploreBenchError",
    "MemoBenchError",
    "MIN_INSTRUCTION_SPEEDUP",
    "PhaseComparison",
    "STATUS_IMPROVEMENT",
    "STATUS_MISSING_BASELINE",
    "STATUS_OK",
    "STATUS_REGRESSION",
    "compare_benches",
    "compute_golden_digests",
    "phase_breakdown",
    "load_bench",
    "run_bench",
    "run_explore_bench",
    "run_memo_bench",
    "run_parallel_bench",
    "simulation_digest",
    "write_bench",
]
