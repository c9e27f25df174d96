"""Identity serialisation: how configs, policies and workloads are named.

This module is the *single* home of identity rendering: checksummed
envelopes (:mod:`repro.fsio.durable`), the exporters and the snapshot
key take :func:`canonical_json` from here, campaign manifests
(:mod:`repro.harness.manifest`) stamp :func:`library_info`, and
``run_one`` stamps :func:`describe_policy` / :func:`describe_workload`
into RunRecord meta, instead of each caller re-deriving field lists.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Any, Dict

from . import __version__

if TYPE_CHECKING:  # identity helpers stay import-light for workers
    from .core.policy import InsertionPolicy
    from .engine import Workload


def canonical_json(payload: Any) -> str:
    """The repo-wide canonical rendering used for content hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dataclass_dict(obj: Any) -> Any:
    """Recursively render dataclasses (and sequences of them) as dicts."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: dataclass_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (list, tuple)):
        return [dataclass_dict(v) for v in obj]
    return obj


def library_info() -> Dict[str, str]:
    """The producing library's identity, stamped into every manifest."""
    return {"name": "repro", "version": __version__}


def describe_policy(policy: "InsertionPolicy") -> Dict[str, Any]:
    """Name, taxonomy and tunables of a policy instance."""
    info: Dict[str, Any] = dict(policy.taxonomy())
    for attr in ("cpth", "th", "tw", "hit_threshold", "decay_epochs",
                 "migrate_on_eviction"):
        if hasattr(policy, attr):
            info[attr] = getattr(policy, attr)
    if getattr(policy, "dueling_config", None) is not None:
        info["dueling"] = dataclass_dict(policy.dueling_config)
    return info


def describe_workload(workload: "Workload") -> Dict[str, Any]:
    """Apps, seeds, trace dimensions and producing family of a workload."""
    info: Dict[str, Any] = {
        "seed": workload.seed,
        "family": workload.family,
        "apps": [p.name for p in workload.profiles],
        "trace_records_per_core": len(workload.traces[0]),
        "footprints_blocks": [p.footprint_blocks for p in workload.profiles],
        "n_phases": [p.n_phases for p in workload.profiles],
    }
    if workload.target is not None:
        info["target"] = workload.target
    return info
