"""Set Dueling machinery for runtime CP_th selection (Sec. IV-C/IV-D).

Each candidate threshold owns one *leader group*: the sets whose
``set_index % leader_groups`` equals the candidate's slot keep a fixed
``CP_th`` and sample the workload with it; all remaining sets follow
the current winner.  At every epoch boundary (2M cycles by default,
the value the paper's sweep selects) the controller elects the next
winner from the leader groups' hit and NVM-bytes-written counters.

Two election rules are provided:

* :class:`MaxHitsRule` — CP_SD: the group with most hits wins.
* :class:`HitWriteTradeoffRule` — CP_SD_Th: Eq. (1); starting from the
  max-hits candidate ``i``, pick the smallest threshold ``j`` with
  ``H(j) > H(i) * (1 - Th/100)`` and ``W(j) < W(i) * (1 - Tw/100)``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import SetDuelingConfig
from ..metrics.registry import register_metric

# Duel outcomes, collected from a bound policy's controller when a
# RunRecord is built.  The per-access sampling (a leader set's hits
# and NVM bytes) is plain-int arithmetic on ``hits``/``writes`` in the
# owning policy's ``on_hit``/``on_nvm_write`` hooks (``CPSDPolicy``).
register_metric("policy", "current_cpth", "bytes",
                "CP_th follower sets currently use (null for fixed policies)",
                aggregation="last", attr="current_cpth")
register_metric("duel", "winner_cpth", "bytes",
                "CP_th elected by the last completed duel epoch",
                aggregation="last", attr="current_winner")
register_metric("duel", "epochs", "count",
                "Completed set-dueling election epochs",
                aggregation="last", attr="epochs_elapsed")


class ElectionRule(abc.ABC):
    """Chooses the next epoch's CP_th from leader-group counters."""

    @abc.abstractmethod
    def elect(
        self, candidates: Sequence[int], hits: Sequence[int], writes: Sequence[int]
    ) -> int:
        """Return the index of the winning candidate."""


class MaxHitsRule(ElectionRule):
    """CP_SD: performance-optimal winner (Sec. IV-C)."""

    def elect(
        self, candidates: Sequence[int], hits: Sequence[int], writes: Sequence[int]
    ) -> int:
        return max(range(len(candidates)), key=lambda k: (hits[k], -candidates[k]))


@dataclass(frozen=True)
class HitWriteTradeoffRule(ElectionRule):
    """CP_SD_Th: rule-based hit/write trade-off, Eq. (1) of Sec. IV-D."""

    hit_loss_pct: float  # Th: max % of hits we are willing to sacrifice
    write_gain_pct: float  # Tw: min % write reduction required in exchange

    def elect(
        self, candidates: Sequence[int], hits: Sequence[int], writes: Sequence[int]
    ) -> int:
        best = MaxHitsRule().elect(candidates, hits, writes)
        h_floor = hits[best] * (1.0 - self.hit_loss_pct / 100.0)
        w_ceil = writes[best] * (1.0 - self.write_gain_pct / 100.0)
        # Candidates are sorted ascending; the smallest CP_th writes the
        # fewest NVM bytes, so scan upward and take the first admissible.
        for k in range(len(candidates)):
            if k == best:
                continue
            if hits[k] > h_floor and writes[k] < w_ceil:
                return k
        return best


class DuelingController:
    """Leader/follower set bookkeeping plus per-epoch election."""

    def __init__(
        self,
        config: SetDuelingConfig,
        n_sets: int,
        rule: Optional[ElectionRule] = None,
    ) -> None:
        self.candidates: Tuple[int, ...] = tuple(sorted(config.cpth_candidates))
        if not self.candidates:
            raise ValueError("need at least one CP_th candidate")
        if len(self.candidates) > config.leader_groups:
            raise ValueError("more candidates than leader groups")
        self.leader_groups = config.leader_groups
        self.n_sets = n_sets
        self.rule = rule if rule is not None else MaxHitsRule()
        # group slot of each set: candidate index, or -1 for followers
        self._slot_of_set: List[int] = [
            (i % config.leader_groups)
            if (i % config.leader_groups) < len(self.candidates)
            else -1
            for i in range(n_sets)
        ]
        self.hits: List[int] = [0] * len(self.candidates)
        self.writes: List[int] = [0] * len(self.candidates)
        self.winner_index: int = len(self.candidates) - 1  # start permissive
        self.epochs_elapsed = 0
        self.winner_history: List[int] = []

    # ------------------------------------------------------------------
    def slot_of(self, set_index: int) -> int:
        """Candidate slot of a leader set, -1 for followers."""
        return self._slot_of_set[set_index]

    def is_leader(self, set_index: int) -> bool:
        return self._slot_of_set[set_index] >= 0

    def cpth_for_set(self, set_index: int) -> int:
        slot = self._slot_of_set[set_index]
        if slot >= 0:
            return self.candidates[slot]
        return self.candidates[self.winner_index]

    @property
    def current_winner(self) -> int:
        return self.candidates[self.winner_index]

    # ------------------------------------------------------------------
    def end_epoch(self) -> int:
        """Elect the next winner and reset the sampling counters."""
        self.winner_index = self.rule.elect(self.candidates, self.hits, self.writes)
        self.winner_history.append(self.candidates[self.winner_index])
        self.hits = [0] * len(self.candidates)
        self.writes = [0] * len(self.candidates)
        self.epochs_elapsed += 1
        return self.candidates[self.winner_index]
