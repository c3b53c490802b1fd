"""Landing-system configuration: presets, the custom builder and serialization.

The paper evaluates three generations (§IV.B.2):

* **MLS-V1** — OpenCV-based marker detection, no obstacle avoidance.
* **MLS-V2** — TPH-YOLO detection + EGO-Planner (dense local grid, local A*).
* **MLS-V3** — TPH-YOLO detection + OctoMap + RRT*.

:func:`mls_v1`, :func:`mls_v2` and :func:`mls_v3` build the corresponding
configurations; everything else about the mission (state machine timings,
validation thresholds, safety margins) is shared, which is what makes the
comparison an ablation of detector / mapper / planner choices.

Beyond the three presets, :meth:`LandingSystemConfig.custom` composes any
registered component combination by registry key — the full 2x3x3 built-in
ablation grid (see :func:`ablation_grid`) plus anything registered through
:mod:`repro.core.registry` — and :meth:`LandingSystemConfig.to_dict` /
:meth:`~LandingSystemConfig.from_dict` round-trip a configuration through
plain JSON-compatible dicts for CLI and multiprocessing use.  A component is
always named by its canonical registry key (a ``str``); aliases such as
``"learned"`` resolve to it when the config is built.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Iterator

# Safe: the registry module does not depend on this one at runtime.
from repro.core.registry import KINDS, REGISTRY


class SystemGeneration(enum.Enum):
    """The three system generations evaluated in the paper."""

    MLS_V1 = "MLS-V1"
    MLS_V2 = "MLS-V2"
    MLS_V3 = "MLS-V3"


@dataclass(frozen=True)
class SearchConfig:
    """SEARCH-state behaviour."""

    search_altitude: float = 8.0
    spiral_radius: float = 15.0
    spiral_spacing: float = 4.0
    search_timeout: float = 90.0


@dataclass(frozen=True)
class ValidationConfig:
    """VALIDATION-state behaviour (the multi-frame gate)."""

    required_frames: int = 12
    required_hits: int = 7
    validation_altitude: float = 6.0
    position_consistency_radius: float = 1.5
    max_attempts: int = 3


@dataclass(frozen=True)
class LandingConfig:
    """LANDING-state behaviour."""

    descent_step: float = 1.5
    final_descent_altitude: float = 1.5
    marker_lost_tolerance: float = 4.0      # seconds without a detection before abort
    reposition_speed_limit: float = 1.5
    max_landing_attempts: int = 2


@dataclass(frozen=True)
class SafetyConfig:
    """Safety / availability dial (§III.D "Safety and Availability")."""

    obstacle_clearance: float = 0.5
    vehicle_radius: float = 0.35
    replan_check_horizon: float = 6.0


#: The nested config sections and their types, shared by to_dict / from_dict.
_SECTION_TYPES = {
    "search": SearchConfig,
    "validation": ValidationConfig,
    "landing": LandingConfig,
    "safety": SafetyConfig,
}


@dataclass(frozen=True)
class LandingSystemConfig:
    """Full configuration of one landing-system composition.

    ``detector`` / ``mapper`` / ``planner`` are registry keys: a registered
    key or alias resolves to its canonical key, and an unregistered one (a
    component registered later, in a worker) is kept as given.
    ``generation`` is set for the paper presets and ``None`` for custom
    compositions, whose display name comes from ``label`` (or is derived from
    the component keys).
    """

    generation: SystemGeneration | None = None
    detector: str = "opencv"
    mapper: str = "none"
    planner: str = "straight-line"
    cruise_altitude: float = 12.0
    search: SearchConfig = field(default_factory=SearchConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    landing: LandingConfig = field(default_factory=LandingConfig)
    safety: SafetyConfig = field(default_factory=SafetyConfig)
    label: str | None = None

    def __post_init__(self) -> None:
        for kind in KINDS:
            key = str(getattr(self, kind))
            if REGISTRY.has(kind, key):
                key = REGISTRY.canonical_key(kind, key)
            object.__setattr__(self, kind, key)

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.generation is not None:
            return self.generation.value
        return f"custom({self.detector}+{self.mapper}+{self.planner})"

    # ------------------------------------------------------------------ #
    # builders
    # ------------------------------------------------------------------ #
    @classmethod
    def custom(
        cls,
        detector: str = "opencv",
        mapper: str = "none",
        planner: str = "straight-line",
        *,
        name: str | None = None,
        **overrides: Any,
    ) -> "LandingSystemConfig":
        """Compose a system from component keys (the ablation-grid builder).

        Args:
            detector / mapper / planner: registry keys or aliases.
            name: optional display name used in campaign tables.
            overrides: any other :class:`LandingSystemConfig` field
                (``cruise_altitude``, ``search``, ``validation``, ...).
        """
        return cls(
            generation=None,
            detector=detector,
            mapper=mapper,
            planner=planner,
            label=name,
            **overrides,
        )

    def with_validation(self, **kwargs) -> "LandingSystemConfig":
        """Copy with validation parameters overridden (used by the ablation bench)."""
        return replace(self, validation=replace(self.validation, **kwargs))

    def with_safety(self, **kwargs) -> "LandingSystemConfig":
        """Copy with safety parameters overridden."""
        return replace(self, safety=replace(self.safety, **kwargs))

    def with_components(
        self,
        detector: str | None = None,
        mapper: str | None = None,
        planner: str | None = None,
        name: str | None = None,
    ) -> "LandingSystemConfig":
        """Copy with some components swapped (clears the generation tag)."""
        return replace(
            self,
            generation=None,
            detector=detector if detector is not None else self.detector,
            mapper=mapper if mapper is not None else self.mapper,
            planner=planner if planner is not None else self.planner,
            label=name if name is not None else self.label,
        )

    # ------------------------------------------------------------------ #
    # serialization (JSON-compatible round trip)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible dict representation (see :meth:`from_dict`)."""
        return {
            "generation": self.generation.value if self.generation is not None else None,
            "detector": self.detector,
            "mapper": self.mapper,
            "planner": self.planner,
            "cruise_altitude": self.cruise_altitude,
            "search": asdict(self.search),
            "validation": asdict(self.validation),
            "landing": asdict(self.landing),
            "safety": asdict(self.safety),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LandingSystemConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Missing keys fall back to defaults, so hand-written partial dicts
        (e.g. from a CLI ``--config`` JSON file) are accepted too; an unknown
        key, top-level or in a section, raises ``ValueError`` naming it.
        """
        _check_keys(cls, data)
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            if key == "generation":
                kwargs[key] = SystemGeneration(value) if value is not None else None
            elif key in _SECTION_TYPES and isinstance(value, dict):
                kwargs[key] = _SECTION_TYPES[key](**_check_keys(_SECTION_TYPES[key], value))
            else:
                kwargs[key] = value
        return cls(**kwargs)


def _check_keys(config_type: type, data: dict[str, Any]) -> dict[str, Any]:
    """``data`` unchanged, or ``ValueError`` naming keys ``config_type`` lacks."""
    known = {f.name for f in fields(config_type)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {config_type.__name__} keys: {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    return data


def mls_v1() -> LandingSystemConfig:
    """First generation: OpenCV detection, no obstacle avoidance."""
    return LandingSystemConfig(
        generation=SystemGeneration.MLS_V1,
        detector="opencv",
        mapper="none",
        planner="straight-line",
    )


def mls_v2() -> LandingSystemConfig:
    """Second generation: TPH-YOLO detection + EGO-Planner local avoidance."""
    return LandingSystemConfig(
        generation=SystemGeneration.MLS_V2,
        detector="tph-yolo",
        mapper="dense-grid",
        planner="ego-local-astar",
    )


def mls_v3() -> LandingSystemConfig:
    """Third generation: TPH-YOLO detection + OctoMap + RRT*."""
    return LandingSystemConfig(
        generation=SystemGeneration.MLS_V3,
        detector="tph-yolo",
        mapper="octomap",
        planner="rrt-star",
    )


def config_for(generation: SystemGeneration) -> LandingSystemConfig:
    """Configuration preset for a generation enum value."""
    if generation is SystemGeneration.MLS_V1:
        return mls_v1()
    if generation is SystemGeneration.MLS_V2:
        return mls_v2()
    return mls_v3()


#: Named presets accepted by the campaign API's ``systems(...)`` call.
PRESETS = {
    "mls-v1": mls_v1,
    "mls-v2": mls_v2,
    "mls-v3": mls_v3,
}


def preset(name: str) -> LandingSystemConfig:
    """Build a preset configuration by name (``"mls-v1"`` / ``"MLS-V2"`` ...)."""
    key = name.strip().lower()
    if key not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[key]()


def ablation_grid(
    valid_only: bool = False,
    **overrides: Any,
) -> Iterator[LandingSystemConfig]:
    """Every detector x mapper x planner combination as a custom config.

    With only the built-in components registered this is the full
    2 x 3 x 3 = 18-combination grid the paper's generations are three points
    of.  ``valid_only`` filters to combinations whose planner requirements
    are satisfied by the mapper (12 of the built-in 18).
    """
    combinations = REGISTRY.valid_combinations() if valid_only else REGISTRY.combinations()
    for detector, mapper, planner in combinations:
        yield LandingSystemConfig.custom(detector, mapper, planner, **overrides)
