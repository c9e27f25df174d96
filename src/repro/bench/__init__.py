"""Golden digests: the correctness bench.

Simulator speed is measured by ``perfbench/`` against a same-host
reference (``BENCHMARK.json``, and the bench leg of ``scripts/ci.sh``).
This package keeps the check that is not a timing comparison:
:mod:`.golden` produces the content digests that prove two engine
versions compute *identical* results.
"""

from .golden import GOLDEN_MIX, GOLDEN_POLICIES, compute_golden_digests, simulation_digest

__all__ = [
    "GOLDEN_MIX",
    "GOLDEN_POLICIES",
    "compute_golden_digests",
    "simulation_digest",
]
