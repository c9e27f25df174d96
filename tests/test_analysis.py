"""Tests for the analysis utilities (curves, charts, claims)."""

import pytest

from repro.analysis import (
    Curve,
    LIFETIME_CLAIMS,
    ascii_chart,
    check_claims,
    resample_capacity,
    resample_ipc,
    time_grid,
)
from repro.forecast import ForecastPoint, ForecastResult


def forecast(label="p", scale=1.0):
    points = [
        ForecastPoint(0.0, 1.0, 2.0 * scale, 0.8, 10.0),
        ForecastPoint(50.0, 0.8, 1.8 * scale, 0.7, 10.0),
        ForecastPoint(100.0, 0.5, 1.5 * scale, 0.6, 10.0),
    ]
    return ForecastResult(policy=label, points=points, reached_stop=True,
                          horizon_seconds=100.0)


def test_time_grid_spans_horizon():
    grid = time_grid([forecast()], points=5)
    assert grid == [0.0, 25.0, 50.0, 75.0, 100.0]
    with pytest.raises(ValueError):
        time_grid([forecast()], points=1)


def test_resample_ipc_step_semantics():
    grid = [0.0, 25.0, 50.0, 75.0, 100.0]
    curve = resample_ipc(forecast(), grid)
    assert curve.values == [2.0, 2.0, 1.8, 1.8, 1.5]


def test_resample_capacity():
    grid = [0.0, 60.0, 100.0]
    curve = resample_capacity(forecast(), grid)
    assert curve.values == [1.0, 0.8, 0.5]


def test_curve_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Curve("x", [0.0, 1.0], [1.0])


def test_ascii_chart_renders():
    grid = time_grid([forecast()], points=10)
    curves = [resample_ipc(forecast("bh"), grid), resample_ipc(forecast("sd", 1.1), grid)]
    text = ascii_chart(curves, width=40, height=8)
    assert "0=bh" in text and "1=sd" in text
    assert "months" in text
    assert len(text.splitlines()) == 8 + 3
    assert ascii_chart([]) == "(no curves)"


# ----------------------------------------------------------------------
def test_claims_all_pass_on_paper_numbers():
    """Feeding the paper's own numbers must satisfy every claim."""
    measurements = {
        "ipc_upper": 1.0,
        "ipc_bh": 0.99,
        "ipc_bh_cp": 0.99,
        "ipc_lhybrid": 0.99 * 0.888,
        "ipc_tap": 0.99 * 0.85,
        "ipc_cp_sd": 0.967,
        "life_bh": 1.0,
        "life_bh_cp": 4.8,
        "life_lhybrid": 19.7,
        "life_tap": 39.0,
        "life_cp_sd": 16.8,
        "life_cp_sd_th4": 16.8 * 1.28,
        "life_cp_sd_th8": 16.8 * 1.44,
    }
    results = check_claims(measurements)
    assert len(results) == len(LIFETIME_CLAIMS)
    failures = [r for r in results if not r["ok"]]
    assert not failures, failures


def test_claims_flag_missing_measurements():
    results = check_claims({})
    assert all(not r["ok"] for r in results)
    assert all(r["measured"] is None for r in results)


def test_claims_detect_violations():
    measurements = {
        "ipc_upper": 1.0,
        "ipc_cp_sd": 0.5,  # way below the SRAM bound
    }
    results = {r["claim"]: r for r in check_claims(measurements)}
    assert not results["cp_sd_near_sram_performance"]["ok"]
