"""Cross-validation of the vectorised aging model against reference
implementations.

The production model collapses each frame's wear to one scalar (valid
under intra-frame leveling) and resolves byte-death boundaries with
vector arithmetic; the per-event reference below distributes every
single byte write explicitly.  Both must agree on live-byte counts for
any write schedule — this is the strongest correctness check the
forecaster rests on.

The rescan reference keeps the death-cursor kernel bit-exact: it
recounts every frame's dead bytes from the whole endurance array on
each iteration, with the same float operations in the same order, so
wear, live counts and every ``time_to_capacity`` answer must match it
bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EnduranceConfig
from repro.forecast.aging import AgingModel


def reference_live_count(endurance_sorted: np.ndarray, total_bytes: float) -> int:
    """Distribute ``total_bytes`` one unit at a time, evenly over the
    currently-live bytes (what perfect leveling converges to)."""
    wear = 0.0
    remaining = float(total_bytes)
    values = list(endurance_sorted)
    live = len(values)
    dead = 0
    while remaining > 1e-9 and live > 0:
        next_death = values[dead] - wear
        budget_to_death = next_death * live
        if remaining < budget_to_death:
            wear += remaining / live
            remaining = 0.0
        else:
            remaining -= budget_to_death
            wear = values[dead]
            dead += 1
            live -= 1
        # consume ties
        while dead < len(values) and values[dead] <= wear:
            dead += 1
            live -= 1
    return live


@given(
    total=st.floats(min_value=0.0, max_value=5e5),
    seed=st.integers(0, 1000),
    cv=st.floats(min_value=0.05, max_value=0.4),
)
@settings(max_examples=80, deadline=None)
def test_vectorised_matches_reference_single_frame(total, seed, cv):
    cfg = EnduranceConfig(mean=1000.0, cv=cv, seed=seed)
    model = AgingModel(cfg, 1, 1)
    model.advance(np.array([[total]]), 1.0)
    expected = reference_live_count(model.endurance[0], total)
    assert model.live_counts()[0] == expected


@given(
    chunks=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=8),
    seed=st.integers(0, 500),
)
@settings(max_examples=60, deadline=None)
def test_incremental_advance_equals_one_shot(chunks, seed):
    """Aging in k steps must equal aging once with the summed volume."""
    cfg = EnduranceConfig(mean=1000.0, cv=0.2, seed=seed)
    stepped = AgingModel(cfg, 1, 1)
    for chunk in chunks:
        stepped.advance(np.array([[chunk]]), 1.0)
    oneshot = AgingModel(cfg, 1, 1)
    oneshot.advance(np.array([[sum(chunks)]]), 1.0)
    assert stepped.live_counts()[0] == oneshot.live_counts()[0]
    assert stepped.wear[0] == pytest.approx(oneshot.wear[0], rel=1e-9, abs=1e-6)


@given(
    rates=st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=4, max_size=4),
    seed=st.integers(0, 300),
)
@settings(max_examples=40, deadline=None)
def test_multi_frame_independence(rates, seed):
    """Frames age independently: batching them must equal per-frame."""
    cfg = EnduranceConfig(mean=500.0, cv=0.25, seed=seed)
    batched = AgingModel(cfg, 2, 2)
    batched.advance(np.array(rates).reshape(2, 2), 100.0)
    for i, rate in enumerate(rates):
        solo = AgingModel(cfg, 2, 2)
        single = np.zeros((2, 2))
        single[i // 2, i % 2] = rate
        solo.advance(single, 100.0)
        assert solo.live_counts()[i] == batched.live_counts()[i]


class RescanAgingModel(AgingModel):
    """The aging model with a full-rescan byte kernel and no cursor."""

    def _advance_bytes(self, total_bytes: np.ndarray) -> None:
        wear = self.wear
        endurance = self.endurance
        block_size = self.block_size
        budget = total_bytes.astype(np.float64).copy()
        frame_ids = np.arange(self.n_frames)
        for _ in range(block_size + 1):
            active = budget > 0
            if not active.any():
                break
            deaths = np.sum(endurance <= wear[:, None], axis=1)
            live = block_size - deaths
            budget[live == 0] = 0.0  # fully dead frames absorb nothing
            active = budget > 0
            if not active.any():
                break
            next_e = np.where(
                live > 0,
                endurance[frame_ids, np.minimum(deaths, block_size - 1)],
                wear,
            )
            to_next_death = (next_e - wear) * live
            finishes = active & (budget < to_next_death)
            wear[finishes] += budget[finishes] / live[finishes]
            budget[finishes] = 0.0
            steps = active & ~finishes
            wear[steps] = next_e[steps]
            budget[steps] -= to_next_death[steps]

    def clone(self) -> "RescanAgingModel":
        other = super().clone()
        other.__class__ = RescanAgingModel
        return other


def assert_same_state(model, reference):
    assert np.array_equal(model.wear, reference.wear)
    assert np.array_equal(model.live_counts(), reference.live_counts())


#: ``advance`` by ``10**dt_exp`` seconds at rates that write about
#: ``10**volume_exp`` bytes (or frame writes) per frame, so deaths are
#: partial, complete and absent across examples.
ADVANCE = st.tuples(
    st.just("advance"),
    st.floats(min_value=2.0, max_value=12.0),  # dt_exp
    st.floats(min_value=2.5, max_value=5.5),  # volume_exp
)
#: ``time_to_capacity`` to a target within a ``10**horizon_exp`` s
#: horizon, at rates of about ``10**rate_exp`` per second.
PROBE = st.tuples(
    st.just("probe"),
    st.floats(min_value=-6.0, max_value=2.0),  # rate_exp
    st.floats(min_value=0.0, max_value=1.0),  # target
    st.floats(min_value=0.0, max_value=14.0),  # horizon_exp
)


@given(
    seed=st.integers(0, 10_000),
    cv=st.floats(min_value=0.05, max_value=0.6),
    granularity=st.sampled_from(["byte", "frame"]),
    n_sets=st.integers(1, 6),
    ways=st.integers(1, 4),
    calls=st.lists(
        st.tuples(
            st.integers(0, 2**32 - 1),  # rate draw seed
            st.floats(min_value=0.0, max_value=0.6),  # unwritten share
            st.one_of(ADVANCE, PROBE),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=80, deadline=None)
def test_cursor_kernel_matches_rescan_bit_for_bit(
    seed, cv, granularity, n_sets, ways, calls
):
    """Chained ``advance``/``time_to_capacity`` calls on random rates,
    with unwritten frames and cv up to 0.6 (clip-floor endurance ties)."""
    cfg = EnduranceConfig(mean=1000.0, cv=cv, seed=seed)
    model = AgingModel(cfg, n_sets, ways, granularity=granularity)
    reference = RescanAgingModel(cfg, n_sets, ways, granularity=granularity)
    for rate_seed, unwritten, call in calls:
        rng = np.random.default_rng(rate_seed)
        if call[0] == "advance":
            _, dt_exp, volume_exp = call
            dt = 10.0**dt_exp
            rate_scale = 10.0 ** (volume_exp - dt_exp)
        else:
            _, rate_exp, target, horizon_exp = call
            rate_scale = 10.0**rate_exp
        rates = rng.exponential(rate_scale, size=(n_sets, ways))
        rates[rng.random((n_sets, ways)) < unwritten] = 0.0
        if call[0] == "probe":
            dt = model.time_to_capacity(rates, target, 10.0**horizon_exp)
            assert dt == reference.time_to_capacity(rates, target, 10.0**horizon_exp)
            if dt is None:
                continue
        model.advance(rates, dt)
        reference.advance(rates, dt)
        assert_same_state(model, reference)


def test_finish_that_rounds_onto_the_next_death_kills_that_byte():
    """``w + b/live`` can round up onto the next endurance value; the
    frame that stops short must still count that byte as dead."""
    one_up = np.nextafter(1.0, 2.0)
    row = np.concatenate([[1.0, one_up], np.linspace(2.0, 3.0, 62)])
    cfg = EnduranceConfig(mean=1000.0, cv=0.2, seed=0)
    model = AgingModel(cfg, 1, 1)
    reference = RescanAgingModel(cfg, 1, 1)
    model.endurance = reference.endurance = row[None, :]
    for total in (64.0, 62 * (one_up - 1.0)):
        model.advance(np.array([[total]]), 1.0)
        reference.advance(np.array([[total]]), 1.0)
        assert_same_state(model, reference)
    # 1 + (62/63) ulp rounds to 1 + 1 ulp == endurance[1]
    assert model.wear[0] == one_up
    assert model.live_counts()[0] == 62
