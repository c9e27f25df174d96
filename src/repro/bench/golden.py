"""Content digests that prove two engine versions agree bit-for-bit.

The performance work on the hot path (sharer index, array replay,
inlined lookups) is only admissible if it is *semantics-preserving*:
the same ``(mix, seed, policy, cycles)`` must produce the same
statistics, epoch records and IPCs.  :func:`simulation_digest` folds a
:class:`~repro.engine.SimulationResult` into a SHA-256 over a
canonical JSON rendering — floats serialised with ``float.hex`` so
even the last mantissa bit is covered — and
:func:`compute_golden_digests` runs the committed golden window.

``tests/goldens/determinism.json`` holds digests recorded with the
*pre-optimization* engine; ``tests/test_golden_determinism.py`` keeps
every later engine pinned to them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Dict, Sequence

from ..core import make_policy
from ..engine import Simulation, SimulationResult
from ..experiments.common import SMOKE

#: The golden window: small enough for tier-1 CI, large enough to
#: cross epoch boundaries, warm-up reset and every insertion path.
GOLDEN_MIX = "mix1"
GOLDEN_POLICIES: Sequence[str] = ("bh", "ca_rwr", "cp_sd")
GOLDEN_SEED = 0
GOLDEN_RECORDS_PER_CORE = 20_000
GOLDEN_SCALE_FACTOR = 1 / 32
GOLDEN_EPOCHS = 2.0
GOLDEN_WARMUP_EPOCHS = 0.5


def _hex(value: float) -> str:
    return float(value).hex()


def simulation_digest(result: SimulationResult) -> str:
    """SHA-256 over every number a simulation reports."""
    stats = result.stats
    payload = {
        "llc": stats.llc.snapshot(),
        "cores": [
            [
                c.instructions,
                _hex(c.cycles),
                c.accesses,
                c.l1_hits,
                c.l2_hits,
                c.llc_hits,
                c.memory_accesses,
            ]
            for c in stats.cores
        ],
        "memory_reads": stats.memory_reads,
        "memory_writes": stats.memory_writes,
        "coherence_invalidations": stats.coherence_invalidations,
        "epochs": [
            [
                e.index,
                _hex(e.end_cycle),
                e.hits,
                e.nvm_bytes_written,
                e.winner_cpth,
                bool(e.after_warmup),
            ]
            for e in result.epochs
        ],
        "ipcs": [_hex(v) for v in result.ipcs],
        "cycles": _hex(result.cycles),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def compute_golden_digests() -> Dict[str, str]:
    """Digest of the golden window under each golden policy.

    The window's workload is built once, through
    :meth:`~repro.experiments.common.ExperimentScale.workload` like
    every other run's, and replayed by each policy.
    """
    scale = replace(
        SMOKE,
        factor=GOLDEN_SCALE_FACTOR,
        trace_records_per_core=GOLDEN_RECORDS_PER_CORE,
    )
    workload = scale.workload(GOLDEN_MIX, seed=GOLDEN_SEED)
    config = SMOKE.system()
    epoch = config.dueling.epoch_cycles
    digests: Dict[str, str] = {}
    for policy_name in GOLDEN_POLICIES:
        sim = Simulation(config, make_policy(policy_name), workload)
        result = sim.run(
            cycles=epoch * (GOLDEN_WARMUP_EPOCHS + GOLDEN_EPOCHS),
            warmup_cycles=epoch * GOLDEN_WARMUP_EPOCHS,
        )
        digests[policy_name] = simulation_digest(result)
    return digests
