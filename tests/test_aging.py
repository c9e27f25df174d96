"""Tests for the NVM aging model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EnduranceConfig
from repro.forecast.aging import AgingModel


def model(n_sets=4, ways=2, cv=0.2, granularity="byte", mean=1000.0):
    return AgingModel(
        EnduranceConfig(mean=mean, cv=cv, seed=42),
        n_sets,
        ways,
        granularity=granularity,
    )


def test_initial_state_full_capacity():
    m = model()
    assert m.effective_capacity() == 1.0
    assert (m.live_counts() == 64).all()
    assert m.capacities().shape == (4, 2)


def test_capacity_decreases_monotonically():
    m = model()
    rates = np.full((4, 2), 100.0)
    caps = [m.effective_capacity()]
    for _ in range(12):
        m.advance(rates, dt_seconds=100.0)
        caps.append(m.effective_capacity())
    assert all(a >= b for a, b in zip(caps, caps[1:]))
    assert caps[-1] < caps[0]


def test_uniform_wear_kills_weakest_bytes_first():
    m = model(n_sets=1, ways=1)
    # push wear just past the weakest byte of the frame
    weakest = m.endurance[0, 0]
    m.advance(np.array([[1.0]]), dt_seconds=weakest * 64 + 64)
    assert m.live_counts()[0] <= 63


def test_byte_deaths_accelerate_survivor_wear():
    """Writing B bytes to fewer live bytes wears each byte more."""
    m = model(n_sets=1, ways=1, mean=100.0)
    total = np.array([[100.0 * 64 * 0.9]])
    m.advance(total, 1.0)
    live_after_one = m.live_counts()[0]
    # same volume again: deaths accelerate
    m.advance(total, 1.0)
    assert m.live_counts()[0] < live_after_one


def test_zero_rate_changes_nothing():
    m = model()
    m.advance(np.zeros((4, 2)), dt_seconds=1e12)
    assert m.effective_capacity() == 1.0


def test_dead_frames_absorb_nothing():
    m = model(n_sets=1, ways=1, mean=10.0)
    huge = np.array([[1e9]])
    m.advance(huge, 1.0)
    assert m.live_counts()[0] == 0
    wear_before = m.wear.copy()
    m.advance(huge, 1.0)
    assert (m.wear == wear_before).all()


def test_frame_granularity_death():
    m = model(n_sets=1, ways=1, granularity="frame", mean=100.0)
    e_min = m.endurance[0, 0]
    m.advance(np.array([[1.0]]), dt_seconds=e_min - 1)
    assert m.live_counts()[0] == 64
    m.advance(np.array([[1.0]]), dt_seconds=2)
    assert m.live_counts()[0] == 0


def test_advance_validation():
    m = model()
    with pytest.raises(ValueError):
        m.advance(np.zeros((4, 2)), -1.0)
    with pytest.raises(ValueError):
        m.advance(np.zeros((3, 2)), 1.0)


def test_bad_granularity():
    with pytest.raises(ValueError):
        AgingModel(EnduranceConfig(), 2, 2, granularity="word")


def test_time_to_capacity_bracket():
    m = model(mean=1000.0)
    rates = np.full((4, 2), 10.0)
    dt = m.time_to_capacity(rates, 0.9, max_seconds=1e9)
    assert dt is not None and dt > 0
    probe = m.clone()
    probe.advance(rates, dt)
    assert probe.effective_capacity() <= 0.905
    # original untouched
    assert m.effective_capacity() == 1.0


def test_time_to_capacity_unreachable():
    m = model(mean=1e12)
    rates = np.full((4, 2), 1e-6)
    assert m.time_to_capacity(rates, 0.5, max_seconds=1e6) is None


def test_time_to_capacity_already_there():
    m = model(mean=10.0)
    m.advance(np.full((4, 2), 1e9), 1.0)
    assert m.time_to_capacity(np.ones((4, 2)), 0.99, 1e9) == 0.0


def test_clone_independent():
    m = model()
    c = m.clone()
    c.advance(np.full((4, 2), 1e6), 1e6)
    assert m.effective_capacity() == 1.0
    assert c.effective_capacity() < 1.0


def test_frame_vs_byte_disabling_capacity_gap():
    """Frame-disabling loses capacity much faster at equal byte wear —
    the mechanism behind Fig. 10c."""
    byte_m = model(n_sets=8, ways=4, granularity="byte", mean=100.0)
    frame_m = model(n_sets=8, ways=4, granularity="frame", mean=100.0)
    byte_rates = np.full((8, 4), 64.0)  # 64 bytes/s spread over the frame
    frame_rates = np.full((8, 4), 1.0)  # 1 frame write/s = same byte volume
    for _ in range(8):
        byte_m.advance(byte_rates, dt_seconds=10.0)
        frame_m.advance(frame_rates, dt_seconds=10.0)
    assert frame_m.effective_capacity() <= byte_m.effective_capacity()


@given(st.floats(min_value=0.1, max_value=1e4), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_capacity_bounded(rate, steps):
    m = model(n_sets=2, ways=2, mean=500.0)
    rates = np.full((2, 2), rate)
    for _ in range(steps):
        m.advance(rates, dt_seconds=50.0)
        assert 0.0 <= m.effective_capacity() <= 1.0
        assert (m.live_counts() >= 0).all()


@pytest.mark.parametrize("horizon", [10.0, 47.0])
def test_time_to_capacity_never_exceeds_a_short_horizon(horizon):
    """A horizon shorter than an hour is not overshot: the target is
    out of reach within it, so the answer is None."""
    m = model()
    rates = np.full((4, 2), 1000.0)
    probe = m.clone()
    probe.advance(rates, horizon)
    assert probe.effective_capacity() > 0.9
    assert m.time_to_capacity(rates, 0.9, max_seconds=horizon) is None


def test_time_to_capacity_zero_horizon():
    m = model()
    assert m.time_to_capacity(np.full((4, 2), 1000.0), 0.9, max_seconds=0.0) is None


def test_time_to_capacity_within_a_short_horizon():
    m = model()
    rates = np.full((4, 2), 1000.0)
    dt = m.time_to_capacity(rates, 0.9, max_seconds=100.0)
    assert dt is not None and 0.0 < dt <= 100.0
    probe = m.clone()
    probe.advance(rates, dt)
    assert probe.effective_capacity() <= 0.9
