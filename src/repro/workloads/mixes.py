"""The named workloads: the ten Table V mixes and the datacenter mixes.

Each Table V mix runs four applications, one per core, randomly drawn
by the authors from the memory-intensive subset of SPEC CPU 2006 and
2017.  :data:`WORKLOADS` is the one table every consumer names a
workload through: ``repro simulate --mix``, campaign units and
:meth:`repro.experiments.common.ExperimentScale.workload`, the only
builder.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .families import DATACENTER
from .profiles import AppProfile, profile

MIXES: Dict[str, Tuple[str, str, str, str]] = {
    "mix1": ("zeusmp06", "gobmk06", "dealII06", "bzip206"),
    "mix2": ("hmmer06", "bzip206", "wrf06", "roms17"),
    "mix3": ("zeusmp06", "cactuBSSN17", "hmmer06", "soplex06"),
    "mix4": ("omnetpp06", "astar06", "milc06", "libquantum06"),
    "mix5": ("xalancbmk06", "leslie3d06", "bwaves17", "mcf17"),
    "mix6": ("lbm17", "xz17", "GemsFDTD06", "wrf06"),
    "mix7": ("cactuBSSN17", "dealII06", "libquantum06", "xalancbmk06"),
    "mix8": ("gobmk06", "milc06", "mcf17", "lbm17"),
    "mix9": ("xz17", "astar06", "bwaves17", "soplex06"),
    "mix10": ("GemsFDTD06", "omnetpp06", "roms17", "leslie3d06"),
}

MIX_NAMES: Tuple[str, ...] = tuple(MIXES)

#: Reference -> (description, per-core profiles at paper scale).  The
#: Table V mixes keep their bare names; the datacenter mixes are
#: ``datacenter:<target>``.  Adding a workload is adding an entry.
WORKLOADS: Dict[str, Tuple[str, Tuple[AppProfile, ...]]] = {
    **{
        name: (" + ".join(apps), tuple(profile(app) for app in apps))
        for name, apps in MIXES.items()
    },
    **{f"datacenter:{name}": entry for name, entry in DATACENTER.items()},
}


class WorkloadRefError(KeyError):
    """A reference that names no entry of :data:`WORKLOADS`.

    ``choices`` carries every valid reference, so the CLI can suggest
    the nearest one without parsing the message.
    """

    def __init__(self, ref: str) -> None:
        super().__init__(ref)
        self.ref = ref
        self.choices = tuple(WORKLOADS)

    def __str__(self) -> str:  # KeyError would repr() the message
        return f"unknown workload {self.ref!r}; known: {', '.join(self.choices)}"


def workload_profiles(ref: str) -> Tuple[AppProfile, ...]:
    """The per-core profiles of a named workload, at paper scale."""
    try:
        return WORKLOADS[ref][1]
    except KeyError:
        raise WorkloadRefError(ref) from None


def workload_provenance(ref: str) -> Tuple[str, str]:
    """The ``(family, target)`` a reference stamps into run records.

    ``datacenter:kv_read`` is ``("datacenter", "kv_read")``; a bare
    Table V mix name is the ``synthetic`` family's target.
    """
    family, _, target = ref.rpartition(":")
    return family or "synthetic", target


def mix_profiles(mix_name: str) -> List[AppProfile]:
    """The four per-core application profiles of a mix."""
    try:
        apps = MIXES[mix_name]
    except KeyError:
        raise KeyError(
            f"unknown mix {mix_name!r}; known: {list(MIXES)}"
        ) from None
    return [profile(name) for name in apps]
