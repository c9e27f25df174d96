"""Tests for the Set Dueling controller and election rules (Sec. IV-C/D)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _hierarchy import build

from repro.config import SetDuelingConfig
from repro.core.set_dueling import (
    DuelingController,
    HitWriteTradeoffRule,
    MaxHitsRule,
)

CANDIDATES = (30, 37, 44, 51, 58, 64)


def controller(n_sets=64, rule=None, **kw):
    return DuelingController(SetDuelingConfig(**kw), n_sets, rule=rule)


def bound_cp_sd(n_sets=64):
    """A CP_SD policy bound to a real LLC; its hooks feed the controller."""
    llc = build("cp_sd", llc_sets=n_sets).llc
    return llc.policy, llc


# ----------------------------------------------------------------------
def test_leader_assignment_pattern():
    ctrl = controller(n_sets=64)
    # set i is a leader of candidate (i % 32) when that slot exists
    assert ctrl.slot_of(0) == 0
    assert ctrl.slot_of(5) == 5
    assert ctrl.slot_of(6) == -1  # only 6 candidates: slots 0..5
    assert ctrl.slot_of(32) == 0
    assert ctrl.is_leader(33) and not ctrl.is_leader(40)


def test_leader_group_sizes_match_paper():
    """Every candidate owns N/32 sets (Sec. IV-C)."""
    n_sets = 1024
    ctrl = controller(n_sets=n_sets)
    counts = {}
    for s in range(n_sets):
        slot = ctrl.slot_of(s)
        counts[slot] = counts.get(slot, 0) + 1
    for k in range(len(CANDIDATES)):
        assert counts[k] == n_sets // 32


def test_leader_sets_keep_fixed_cpth():
    ctrl = controller()
    assert ctrl.cpth_for_set(0) == 30
    assert ctrl.cpth_for_set(5) == 64
    ctrl.hits[0] = 100  # make 30 win
    ctrl.end_epoch()
    assert ctrl.cpth_for_set(0) == 30  # leaders never change
    assert ctrl.cpth_for_set(6) == 30  # followers adopt the winner


def test_followers_start_permissive():
    ctrl = controller()
    assert ctrl.cpth_for_set(7) == 64


def test_max_hits_election_and_reset():
    policy, llc = bound_cp_sd()
    ctrl = policy.controller
    policy.on_hit(llc.sets[2], 0, False)   # candidate 44
    policy.on_hit(llc.sets[2], 0, True)
    policy.on_hit(llc.sets[1], 0, False)   # candidate 37
    policy.on_nvm_write(1, 32)
    assert ctrl.hits == [0, 1, 2, 0, 0, 0]
    assert ctrl.writes == [0, 32, 0, 0, 0, 0]
    winner = ctrl.end_epoch()
    assert winner == 44
    assert ctrl.current_winner == 44
    assert ctrl.hits == [0] * 6 and ctrl.writes == [0] * 6
    assert ctrl.winner_history == [44]
    assert ctrl.epochs_elapsed == 1


def test_followers_do_not_record():
    policy, llc = bound_cp_sd()
    ctrl = policy.controller
    policy.on_hit(llc.sets[6], 0, False)  # follower set
    policy.on_nvm_write(7, 64)            # follower set
    assert sum(ctrl.hits) == 0 and sum(ctrl.writes) == 0


def test_max_hits_tie_prefers_smaller_cpth():
    rule = MaxHitsRule()
    assert rule.elect(CANDIDATES, [5, 5, 0, 0, 0, 5], [0] * 6) == 0


# ----------------------------------------------------------------------
def test_tradeoff_rule_accepts_cheaper_candidate():
    """Eq. (1): smallest CP_th with H(j) > H(i)(1-Th) and W(j) < W(i)(1-Tw)."""
    rule = HitWriteTradeoffRule(hit_loss_pct=4.0, write_gain_pct=5.0)
    hits = [97, 98, 99, 99, 100, 100]
    writes = [10, 20, 40, 60, 80, 100]
    # best by hits is index 4 (100 hits, ties break to smaller cpth).
    # index 0: 97 > 100*0.96=96 and 10 < 80*0.95 -> accepted
    assert rule.elect(CANDIDATES, hits, writes) == 0


def test_tradeoff_rule_rejects_too_costly_hits():
    rule = HitWriteTradeoffRule(hit_loss_pct=2.0, write_gain_pct=5.0)
    hits = [90, 99, 100, 100, 100, 100]
    writes = [10, 99, 100, 100, 100, 100]
    # 90 <= 100*0.98: index 0 rejected; index 1 write cut only 1% -> rejected
    assert rule.elect(CANDIDATES, hits, writes) == 2


def test_tradeoff_rule_th0_requires_strictly_more_hits():
    rule = HitWriteTradeoffRule(hit_loss_pct=0.0, write_gain_pct=5.0)
    hits = [100, 100, 100, 100, 100, 100]
    writes = [50, 60, 70, 80, 90, 100]
    # H(j) > H(i) is impossible on a tie; max-hits tie-break picks 0 anyway
    assert rule.elect(CANDIDATES, hits, writes) == 0


def test_tradeoff_rule_falls_back_to_best():
    rule = HitWriteTradeoffRule(hit_loss_pct=4.0, write_gain_pct=5.0)
    hits = [10, 10, 10, 10, 10, 100]
    writes = [100, 100, 100, 100, 100, 100]
    assert rule.elect(CANDIDATES, hits, writes) == 5


# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        DuelingController(SetDuelingConfig(cpth_candidates=()), 64)
    with pytest.raises(ValueError):
        DuelingController(
            SetDuelingConfig(cpth_candidates=tuple(range(40)), leader_groups=32), 64
        )


@given(
    st.lists(st.integers(0, 1000), min_size=6, max_size=6),
    st.lists(st.integers(0, 10_000), min_size=6, max_size=6),
    st.floats(min_value=0, max_value=10),
    st.floats(min_value=0, max_value=10),
)
@settings(max_examples=200)
def test_tradeoff_rule_never_picks_worse_writes_for_fewer_hits(
    hits, writes, th, tw
):
    """Property: the elected candidate either is the max-hits one, or
    strictly cuts writes while keeping hits above the floor."""
    rule = HitWriteTradeoffRule(th, tw)
    best = MaxHitsRule().elect(CANDIDATES, hits, writes)
    chosen = rule.elect(CANDIDATES, hits, writes)
    if chosen != best:
        assert hits[chosen] > hits[best] * (1 - th / 100)
        assert writes[chosen] < writes[best] * (1 - tw / 100)
