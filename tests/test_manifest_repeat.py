"""Tests for the policy and workload identity stamped into run metadata."""

from repro.core import make_policy
from repro.experiments.common import SMOKE
from repro.manifest import describe_policy, describe_workload


def test_describe_policy_captures_tunables():
    info = describe_policy(make_policy("ca_rwr", cpth=37, migrate_on_eviction=False))
    assert info["name"] == "ca_rwr"
    assert info["cpth"] == 37
    assert info["migrate_on_eviction"] is False
    info = describe_policy(make_policy("cp_sd_th", th=8.0))
    assert info["th"] == 8.0
    assert "dueling" in info and info["dueling"]["leader_groups"] == 32


def test_describe_workload():
    workload = SMOKE.workload("mix4", seed=1)
    info = describe_workload(workload)
    assert len(info["apps"]) == 4
    assert info["trace_records_per_core"] == len(workload.traces[0])
