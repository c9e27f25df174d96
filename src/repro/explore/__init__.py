"""Successive-halving design-space exploration (analytical fast path).

``repro explore`` screens 1000+ LLC configurations through the
closed-form estimator in :mod:`repro.analytical`, prunes rung by rung,
confirms the survivors with real simulations, and emits
a crash-consistent Pareto frontier over (IPC, projected lifetime).
"""

from .explorer import (
    CONFIRM_SCHEMA,
    FRONTIER_SCHEMA,
    KILL_AFTER_ENV,
    META_NAME,
    META_SCHEMA,
    OBJECTIVES,
    RUNG_SCHEMA,
    Evaluation,
    ExploreError,
    ExploreKilled,
    ExploreResult,
    ExploreSettings,
    Explorer,
    pareto_front,
    run_explore,
    rung_plan,
)
from .space import (
    CPTH_LADDER,
    CV_VALUES,
    SPACE_NAMES,
    WAY_SPLITS,
    DesignPoint,
    ExploreSpace,
)

__all__ = [
    "CONFIRM_SCHEMA",
    "CPTH_LADDER",
    "CV_VALUES",
    "DesignPoint",
    "Evaluation",
    "ExploreError",
    "ExploreKilled",
    "ExploreResult",
    "ExploreSettings",
    "ExploreSpace",
    "Explorer",
    "FRONTIER_SCHEMA",
    "KILL_AFTER_ENV",
    "META_NAME",
    "META_SCHEMA",
    "OBJECTIVES",
    "RUNG_SCHEMA",
    "SPACE_NAMES",
    "WAY_SPLITS",
    "pareto_front",
    "run_explore",
    "rung_plan",
]
