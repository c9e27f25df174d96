"""Workload family registry: every workload behind one pluggable seam.

Historically ``repro.workloads`` *was* the calibrated synthetic
generator — one implicit family, hard-wired into every layer that
needed a workload.  This module makes the family explicit: a
:class:`WorkloadFamily` names a set of *targets* (mixes, scenarios),
describes each one as a :class:`TargetSpec`, and builds a
ready-to-simulate :class:`~repro.engine.Workload` on demand.
Everything downstream — campaign units, ``repro simulate``,
``repro export`` — works per family without knowing any family's
internals.

Workload references
-------------------

A workload is named by a ``family:target`` reference string.  For
backwards compatibility a bare name (no colon) refers to the
``synthetic`` family, so every pre-registry mix name (``"mix1"``,
``"mix4"``, …) keeps working verbatim — in CLI flags and campaign
units.

Registered families:

* ``synthetic`` — the paper's Table V mixes (PROFILES/MIXES), built
  byte-identically to the pre-registry path; the committed golden
  digests gate this.
* ``datacenter`` — key-value/scan service mixes
  (:mod:`repro.workloads.families`).

Adding a family is subclassing :class:`WorkloadFamily`, supplying
:meth:`~WorkloadFamily.targets` and :meth:`~WorkloadFamily._profiles`,
and calling :func:`register_family`; campaigns inherit it with no
further wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from .mixes import MIX_NAMES, mix_profiles
from .profiles import AppProfile

if TYPE_CHECKING:  # avoid the engine import cycle at module load
    from ..engine import Workload
    from ..experiments.common import ExperimentScale


class WorkloadRefError(KeyError):
    """A workload reference names no registered family or target.

    A :class:`KeyError` subclass so pre-registry callers that caught
    ``KeyError`` from ``mix_profiles`` keep working; carries the
    offending ``ref`` and the valid ``choices`` so the CLI can build
    did-you-mean suggestions without string-parsing the message.
    """

    def __init__(self, ref: str, reason: str, choices: Tuple[str, ...] = ()):
        super().__init__(f"{ref!r}: {reason}")
        self.ref = ref
        self.reason = reason
        self.choices = tuple(choices)

    def __str__(self) -> str:  # KeyError would repr() the message
        return f"{self.ref!r}: {self.reason}"


@dataclass(frozen=True)
class TargetSpec:
    """Declarative identity of one buildable workload target.

    The spec is everything a consumer needs to display a target
    (``repro workloads``).  Footprints are in blocks at paper scale;
    compressibility fractions are the per-core mean of the profile
    HCR/LCR/incompressible splits.
    """

    family: str
    target: str
    cores: int
    description: str
    footprint_blocks: int
    hcr_fraction: float
    lcr_fraction: float
    incompressible_fraction: float

    @property
    def ref(self) -> str:
        return f"{self.family}:{self.target}"


def _mean_fractions(
    profiles: List[AppProfile],
) -> Tuple[float, float, float]:
    n = len(profiles)
    return (
        sum(p.hcr_fraction for p in profiles) / n,
        sum(p.lcr_fraction for p in profiles) / n,
        sum(p.incompressible_fraction for p in profiles) / n,
    )


class WorkloadFamily:
    """One pluggable source of profile-backed workload targets.

    Subclasses set :attr:`name` / :attr:`description` and implement
    :meth:`targets` and :meth:`_profiles`, which returns a target's
    per-core profiles at paper scale.  Building scales them by
    ``scale.factor`` and routes through the shared in-process
    :class:`WorkloadCache` — exactly the pre-registry
    ``ExperimentScale.workload`` body, so the ``synthetic`` family
    stays byte-identical under the golden digests and every family
    shares the same caching.
    """

    name: str = ""
    description: str = ""

    def targets(self) -> Tuple[str, ...]:
        """The buildable target names, in a stable order."""
        raise NotImplementedError

    def _profiles(self, target: str) -> List[AppProfile]:
        """Per-core profiles of ``target`` at paper scale."""
        raise NotImplementedError

    def _target_description(self, target: str) -> str:
        return ""

    def check_target(self, target: str) -> str:
        """Validate a target name, raising :class:`WorkloadRefError`."""
        known = self.targets()
        if target not in known:
            raise WorkloadRefError(
                f"{self.name}:{target}",
                f"unknown {self.name} target {target!r}",
                choices=tuple(f"{self.name}:{t}" for t in known),
            )
        return target

    def target_spec(self, target: str) -> TargetSpec:
        """The declarative spec of one target."""
        self.check_target(target)
        profiles = self._profiles(target)
        hcr, lcr, inc = _mean_fractions(profiles)
        return TargetSpec(
            family=self.name,
            target=target,
            cores=len(profiles),
            description=self._target_description(target),
            footprint_blocks=sum(p.footprint_blocks for p in profiles),
            hcr_fraction=hcr,
            lcr_fraction=lcr,
            incompressible_fraction=inc,
        )

    def build(
        self, target: str, scale: "ExperimentScale", seed: int = 0
    ) -> "Workload":
        """A ready-to-simulate workload for ``target`` at ``scale``."""
        from ..engine import Workload
        from .cache import SHARED_WORKLOAD_CACHE

        self.check_target(target)
        profiles = [p.scaled(scale.factor) for p in self._profiles(target)]
        records = scale.trace_records_per_core
        family, name = self.name, target
        return SHARED_WORKLOAD_CACHE.get(
            profiles, seed, records,
            lambda: Workload(
                profiles, seed=seed, trace_records_per_core=records,
                family=family, target=name,
            ),
            token=self.name,
        )


class SyntheticMixFamily(WorkloadFamily):
    """The paper's Table V mixes — the pre-registry workload space."""

    name = "synthetic"
    description = (
        "Table V multi-programmed SPEC mixes, calibrated to Fig. 2 "
        "(the paper's evaluation workloads)"
    )

    def targets(self) -> Tuple[str, ...]:
        return MIX_NAMES

    def _profiles(self, target: str) -> List[AppProfile]:
        return mix_profiles(target)

    def _target_description(self, target: str) -> str:
        from .mixes import MIXES

        return " + ".join(MIXES[target])


# ----------------------------------------------------------------------
# registry

_FAMILIES: Dict[str, WorkloadFamily] = {}

#: The family bare (no-colon) references resolve to.
DEFAULT_FAMILY = "synthetic"


def register_family(family: WorkloadFamily) -> WorkloadFamily:
    """Add a family to the registry (name collisions are a bug)."""
    if not family.name:
        raise ValueError("family has no name")
    if family.name in _FAMILIES:
        raise ValueError(f"workload family {family.name!r} already registered")
    _FAMILIES[family.name] = family
    return family


def family_names() -> Tuple[str, ...]:
    """Registered family names, default family first."""
    rest = sorted(n for n in _FAMILIES if n != DEFAULT_FAMILY)
    return (DEFAULT_FAMILY, *rest) if DEFAULT_FAMILY in _FAMILIES else tuple(rest)


def get_family(name: str) -> WorkloadFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise WorkloadRefError(
            name, f"unknown workload family {name!r}",
            choices=family_names(),
        ) from None


def parse_workload_ref(ref: str) -> Tuple[str, str]:
    """Split a ``family:target`` reference (bare name -> synthetic)."""
    if not isinstance(ref, str) or not ref:
        raise WorkloadRefError(str(ref), "empty workload reference")
    if ":" not in ref:
        return DEFAULT_FAMILY, ref
    family, _, target = ref.partition(":")
    if not family or not target:
        raise WorkloadRefError(
            ref, "malformed reference (want 'family:target' or a mix name)"
        )
    return family, target


def resolve_workload_ref(ref: str) -> Tuple[WorkloadFamily, str]:
    """Parse + validate a reference against the live registry."""
    family_name, target = parse_workload_ref(ref)
    family = get_family(family_name)
    family.check_target(target)
    return family, target


def normalize_workload_ref(ref: str) -> str:
    """Canonical form: bare names for synthetic targets, refs otherwise.

    ``synthetic:mix1`` and ``mix1`` are the same target; normalising
    to the bare spelling keeps campaign unit ids identical to the
    pre-registry ones.
    """
    family, target = resolve_workload_ref(ref)
    return target if family.name == DEFAULT_FAMILY else f"{family.name}:{target}"


def build_workload(
    ref: str, scale: "ExperimentScale", seed: int = 0
) -> "Workload":
    """Build the workload a reference names, at ``scale``."""
    family, target = resolve_workload_ref(ref)
    return family.build(target, scale=scale, seed=seed)


def workload_refs() -> Tuple[str, ...]:
    """Every buildable ``family:target`` reference, stably ordered."""
    refs: List[str] = []
    for name in family_names():
        family = _FAMILIES[name]
        refs.extend(f"{name}:{target}" for target in family.targets())
    return tuple(refs)


register_family(SyntheticMixFamily())

# Self-registration of the bundled scenario family (the import side
# effect is the registration call).  Kept at the bottom so the module
# can import the base class above.
from . import families as _families  # noqa: E402,F401  (registers "datacenter")
