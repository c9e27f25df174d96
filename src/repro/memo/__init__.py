"""Content-addressed memoization above the engine.

Two layers, both keyed by content hashes and tolerant of corrupt or
stale entries:

* :mod:`repro.memo.fingerprint` — the code-version fingerprint derived
  from the committed golden digests; any engine change that alters
  statistics changes every memo key.
* :mod:`repro.memo.results` — the on-disk campaign result cache: a
  completed unit's verified JSON payload, keyed by (fingerprint,
  experiment, unit, scale).

:mod:`repro.memo.snapshots`, the retired post-warm-up snapshot store,
is no longer used by any simulation and is not re-exported here; it
stays only for the benchmark in ``perfbench/``, which still imports
its names.
"""

from .fingerprint import EMBEDDED_GOLDEN_DIGESTS, code_fingerprint
from .results import RESULT_CACHE_ENV, ResultCache, result_cache_key

__all__ = [
    "EMBEDDED_GOLDEN_DIGESTS",
    "code_fingerprint",
    "RESULT_CACHE_ENV",
    "ResultCache",
    "result_cache_key",
]
