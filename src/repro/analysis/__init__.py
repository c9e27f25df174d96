"""Result analysis: curve resampling, ASCII charts, paper-claim checks."""

from .claims import (
    Claim,
    LIFETIME_CLAIMS,
    check_claims,
    measurements_from_study,
)
from .curves import (
    Curve,
    ascii_chart,
    resample_capacity,
    resample_ipc,
    time_grid,
)

__all__ = [
    "Claim",
    "Curve",
    "LIFETIME_CLAIMS",
    "ascii_chart",
    "check_claims",
    "measurements_from_study",
    "resample_capacity",
    "resample_ipc",
    "time_grid",
]
