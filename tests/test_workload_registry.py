"""Workload family registry: refs, specs, fingerprints, new families.

The registry's contract has two halves.  Backwards: the ``synthetic``
family must be indistinguishable from the pre-registry code — bare mix
names resolve, builds are byte-identical (the golden-digest gate), and
memo fingerprints stay ``None`` so no cached result is orphaned.
Forwards: every family is enumerable with a key-grade
:class:`TargetSpec`, buildable at any scale, campaign-enumerable, and
unknown references fail loudly with the valid choices attached.
"""

from dataclasses import replace

import pytest

from repro.experiments.common import SMOKE
from repro.workloads.registry import (
    DEFAULT_FAMILY,
    TargetSpec,
    WorkloadFamily,
    WorkloadRefError,
    build_workload,
    family_names,
    get_family,
    normalize_workload_ref,
    parse_workload_ref,
    register_family,
    resolve_workload_ref,
    workload_ref_fingerprint,
    workload_refs,
)

TINY = replace(SMOKE, trace_records_per_core=3_000)


# ----------------------------------------------------------------------
# reference parsing and resolution

def test_bare_name_is_synthetic():
    assert parse_workload_ref("mix1") == (DEFAULT_FAMILY, "mix1")


def test_qualified_ref_parses():
    assert parse_workload_ref("datacenter:kv_read") == ("datacenter", "kv_read")


@pytest.mark.parametrize("bad", ["", ":", "family:", ":target"])
def test_malformed_refs_rejected(bad):
    with pytest.raises(WorkloadRefError):
        parse_workload_ref(bad)


def test_unknown_family_carries_choices():
    with pytest.raises(WorkloadRefError) as err:
        resolve_workload_ref("nosuch:thing")
    assert err.value.choices == family_names()


def test_unknown_target_carries_qualified_choices():
    with pytest.raises(WorkloadRefError) as err:
        resolve_workload_ref("synthetic:mix99")
    assert "synthetic:mix1" in err.value.choices


def test_ref_error_is_keyerror():
    # pre-registry callers caught KeyError from mix_profiles; the
    # registry's error must stay catchable the same way
    with pytest.raises(KeyError):
        build_workload("mix99", scale=TINY)


def test_normalize_prefers_bare_synthetic():
    assert normalize_workload_ref("synthetic:mix1") == "mix1"
    assert normalize_workload_ref("mix1") == "mix1"
    assert normalize_workload_ref("datacenter:kv_read") == "datacenter:kv_read"


def test_family_names_default_first():
    assert family_names() == ("synthetic", "datacenter")


def test_workload_refs_cover_every_family_target():
    refs = workload_refs()
    for name in family_names():
        for target in get_family(name).targets():
            assert f"{name}:{target}" in refs


def test_register_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_family(get_family(DEFAULT_FAMILY))


def test_register_rejects_nameless():
    with pytest.raises(ValueError, match="no name"):
        register_family(WorkloadFamily())


# ----------------------------------------------------------------------
# target specs

def test_every_builtin_target_has_a_spec():
    for name in family_names():
        family = get_family(name)
        for target in family.targets():
            spec = family.target_spec(target)
            assert spec.ref == f"{name}:{target}"
            assert spec.cores >= 1
            assert spec.footprint_blocks > 0
            fractions = (
                spec.hcr_fraction,
                spec.lcr_fraction,
                spec.incompressible_fraction,
            )
            assert all(0.0 <= f <= 1.0 for f in fractions)
            assert sum(fractions) == pytest.approx(1.0, abs=1e-6)


def test_spec_hash_is_stable_and_distinct():
    spec = get_family("synthetic").target_spec("mix1")
    again = get_family("synthetic").target_spec("mix1")
    other = get_family("synthetic").target_spec("mix4")
    assert spec.spec_hash == again.spec_hash
    assert spec.spec_hash != other.spec_hash


def test_spec_json_roundtrips_identity():
    spec = get_family("datacenter").target_spec("kv_read")
    data = spec.to_json()
    rebuilt = TargetSpec(
        family=data["family"],
        target=data["target"],
        cores=data["cores"],
        description=data["description"],
        footprint_blocks=data["footprint_blocks"],
        hcr_fraction=data["hcr_fraction"],
        lcr_fraction=data["lcr_fraction"],
        incompressible_fraction=data["incompressible_fraction"],
    )
    assert rebuilt.spec_hash == spec.spec_hash


# ----------------------------------------------------------------------
# memo fingerprints

def test_synthetic_fingerprint_is_none():
    # bare mix names ARE the pre-registry memo key space: a synthetic
    # fingerprint component would orphan every existing cache entry
    assert workload_ref_fingerprint("mix1") is None
    assert workload_ref_fingerprint("synthetic:mix1") is None


def test_new_family_fingerprint_names_family_and_spec():
    fp = workload_ref_fingerprint("datacenter:kv_read")
    assert fp["family"] == "datacenter"
    assert fp["target"] == "kv_read"
    spec = get_family("datacenter").target_spec("kv_read")
    assert fp["spec_hash"] == spec.spec_hash


def test_fingerprints_differ_across_targets():
    a = workload_ref_fingerprint("datacenter:kv_read")
    b = workload_ref_fingerprint("datacenter:kv_write")
    assert a["spec_hash"] != b["spec_hash"]


# ----------------------------------------------------------------------
# building

def test_synthetic_build_matches_scale_workload():
    via_registry = build_workload("mix1", scale=TINY, seed=0)
    direct = TINY.workload("mix1", seed=0)
    assert via_registry is direct  # same shared-cache entry


def test_builds_stamp_family_and_target():
    workload = build_workload("datacenter:scan_analytics", scale=TINY, seed=0)
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
    workload = build_workload(ref, scale=TINY, seed=0)
    spec = resolve_workload_ref(ref)[0].target_spec(ref.split(":")[1])
    assert len(workload.traces) == spec.cores
    for trace in workload.traces:
        assert len(trace) == TINY.trace_records_per_core


def test_same_ref_same_seed_shares_cache_entry():
    first = build_workload("datacenter:kv_write", scale=TINY, seed=3)
    second = build_workload("datacenter:kv_write", scale=TINY, seed=3)
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

    assert pkg.build_workload is build_workload
    assert pkg.WorkloadRefError is WorkloadRefError
