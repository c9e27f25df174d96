"""Integration of CP_SD's Set Dueling with the live LLC."""

from _hierarchy import build, part_of, read

from repro.cache.cacheset import NVM, SRAM

# Follower-set blocks (set 7; 64 LLC sets, 32 leader groups, 6
# candidates) that push a block out of core 0's two-way L2.
PUSH = (0x07, 0x47)


def make_hierarchy(size=30, policy="cp_sd", **policy_kw):
    h = build(policy, size=size, llc_sets=64, **policy_kw)
    return h, h.llc.policy


def test_leader_sets_use_their_own_threshold():
    _h, policy = make_hierarchy()
    ctrl = policy.controller
    assert ctrl is not None
    # leader of candidate 0 (CP_th=30) vs leader of candidate 5 (64)
    assert policy.cpth_for_set(0) == 30
    assert policy.cpth_for_set(5) == 64
    assert policy.cpth_for_set(10) == ctrl.current_winner


def test_leader_placement_differs_by_threshold():
    """A 44-byte block goes to NVM in a CP_th=51 leader set but to SRAM
    in a CP_th=30 leader set."""
    h, _policy = make_hierarchy(size=44)
    # set 4 is the leader of candidate 51; set 0 of candidate 30
    addr_low = 0    # maps to set 0 (CP_th=30): 44 > 30 -> SRAM
    addr_high = 4   # maps to set 4 (CP_th=51): 44 <= 51 -> NVM
    read(h, addr_low, addr_high, *PUSH)  # both leave L2 for the LLC
    assert part_of(h, addr_low) == SRAM
    assert part_of(h, addr_high) == NVM


def test_hits_and_writes_feed_the_controller():
    h, policy = make_hierarchy()
    ctrl = policy.controller
    # fill + hit in leader set 2 (candidate 44)
    read(h, 2, *PUSH)           # set 2, small -> NVM write
    assert part_of(h, 2) == NVM
    assert ctrl.writes[2] == 32
    assert h.access(0, 2, False).llc_hit
    assert ctrl.hits[2] == 1
    # follower set activity does not pollute the samplers
    before = (list(ctrl.hits), list(ctrl.writes))
    read(h, 40, *PUSH)          # set 40 (40 % 32 = 8): follower
    assert part_of(h, 40) == NVM
    assert h.access(0, 40, False).llc_hit
    assert (ctrl.hits, ctrl.writes) == before


def test_end_epoch_changes_followers():
    h, policy = make_hierarchy()
    ctrl = policy.controller
    ctrl.hits[0] = 99  # make CP_th=30 the winner
    h.end_epoch()
    assert ctrl.current_winner == 30
    assert policy.cpth_for_set(40) == 30  # follower adopted it
    assert policy.cpth_for_set(5) == 64   # leader unchanged


def test_th_variant_considers_writes():
    h, policy = make_hierarchy(policy="cp_sd_th", th=8.0, tw=5.0)
    ctrl = policy.controller
    ctrl.hits[:] = [98, 99, 100, 100, 100, 100]
    ctrl.writes[:] = [10, 50, 100, 100, 100, 100]
    h.end_epoch()
    # Eq. (1): CP_th=30 keeps >92% of hits and cuts writes by >5%
    assert ctrl.current_winner == 30
