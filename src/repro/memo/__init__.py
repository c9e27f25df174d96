"""Memoization above the engine.

:mod:`repro.memo.snapshots`, the retired post-warm-up snapshot store,
is no longer used by any simulation and is not re-exported here; it
stays only for the benchmark in ``perfbench/``, which still imports
its names.  A campaign avoids recomputing a unit only by resuming: the
manifest skips every verified result.
"""
