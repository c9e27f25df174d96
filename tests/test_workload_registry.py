"""The table of named workloads: references, entries, builds, stamps.

``WORKLOADS`` names every workload: the Table V mixes by their bare
names and the datacenter mixes as ``datacenter:<target>``.
``ExperimentScale.workload`` is its one builder.  Every entry must
describe itself, build at any scale, run to a schema-valid RunRecord
stamped with the ``family``/``target`` its reference spells, and
enumerate as campaign units; unknown references fail loudly with the
valid ones attached.
"""

from dataclasses import replace

import pytest

from repro.core import make_policy
from repro.experiments.common import SMOKE, run_one
from repro.metrics import RunRecord
from repro.workloads.families import DATACENTER
from repro.workloads.mixes import (
    MIX_NAMES,
    WORKLOADS,
    WorkloadRefError,
    workload_provenance,
)

TINY = replace(SMOKE, trace_records_per_core=3_000)


# ----------------------------------------------------------------------
# references

def test_bare_name_is_synthetic():
    assert workload_provenance("mix1") == ("synthetic", "mix1")


def test_qualified_ref_parses():
    assert workload_provenance("datacenter:kv_read") == ("datacenter", "kv_read")


@pytest.mark.parametrize("bad", ["", ":", "family:", ":target"])
def test_malformed_refs_rejected(bad):
    with pytest.raises(WorkloadRefError):
        TINY.workload(bad)


def test_unknown_family_carries_choices():
    with pytest.raises(WorkloadRefError) as err:
        TINY.workload("nosuch:thing")
    assert err.value.choices == tuple(WORKLOADS)


def test_unknown_target_carries_qualified_choices():
    with pytest.raises(WorkloadRefError) as err:
        TINY.workload("datacenter:kv_raed")
    assert "datacenter:kv_read" in err.value.choices


def test_ref_error_is_keyerror():
    # an unknown reference is a missing table key
    with pytest.raises(KeyError):
        TINY.workload("mix99")


def test_family_names_default_first():
    # the paper's Table V mixes lead the table, the datacenter mixes follow
    refs = tuple(WORKLOADS)
    assert refs[: len(MIX_NAMES)] == MIX_NAMES
    assert all(ref.startswith("datacenter:") for ref in refs[len(MIX_NAMES):])


def test_workload_refs_cover_every_family_target():
    assert set(WORKLOADS) == set(MIX_NAMES) | {
        f"datacenter:{target}" for target in DATACENTER
    }


# ----------------------------------------------------------------------
# table entries

def test_every_builtin_target_has_a_spec():
    for ref, (description, profiles) in WORKLOADS.items():
        assert description, ref
        assert len(profiles) >= 1
        assert all(p.footprint_blocks > 0 for p in profiles)
        for p in profiles:
            fractions = (
                p.hcr_fraction,
                p.lcr_fraction,
                p.incompressible_fraction,
            )
            assert all(0.0 <= f <= 1.0 for f in fractions)
            assert sum(fractions) == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------------
# building

def test_builds_stamp_family_and_target():
    workload = TINY.workload("datacenter:scan_analytics", seed=0)
    assert workload.family == "datacenter"
    assert workload.target == "scan_analytics"
    assert len(workload.traces) == 4


@pytest.mark.parametrize(
    "ref",
    [
        "datacenter:kv_read",
        "datacenter:kv_write",
        "datacenter:scan_analytics",
        "datacenter:kv_scan_mix",
    ],
)
def test_new_family_targets_build_and_replay(ref):
    workload = TINY.workload(ref, seed=0)
    assert len(workload.traces) == len(WORKLOADS[ref][1])
    for trace in workload.traces:
        assert len(trace) == TINY.trace_records_per_core


@pytest.mark.parametrize("ref", tuple(WORKLOADS))
def test_every_workload_runs_to_a_stamped_record(ref):
    workload = TINY.workload(ref)
    record = run_one(TINY.system(), make_policy("bh"), workload, 0.25, 1)
    record.validate()
    meta = RunRecord.from_json(record.to_json()).meta["workload"]
    assert (meta["family"], meta["target"]) == workload_provenance(ref)


def test_same_ref_same_seed_shares_cache_entry():
    first = TINY.workload("datacenter:kv_write", seed=3)
    second = TINY.workload("datacenter:kv_write", seed=3)
    assert first is second


def test_campaign_units_enumerate_over_new_families():
    from repro.experiments.campaign_tasks import enumerate_campaign_tasks

    refs = ("datacenter:kv_read", "datacenter:scan_analytics")
    scale = replace(TINY, mixes=refs)
    tasks = enumerate_campaign_tasks(["fig6"], scale)
    mixes = {task.unit["mix"] for task in tasks}
    assert mixes == set(refs)


# ----------------------------------------------------------------------
# package root

def test_registry_api_reachable_from_package_root():
    import repro.workloads as pkg

    assert pkg.WORKLOADS is WORKLOADS
    assert pkg.WorkloadRefError is WorkloadRefError
