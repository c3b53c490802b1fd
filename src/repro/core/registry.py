"""Pluggable component registry for the landing-system composition API.

The paper's three generations (MLS-V1/V2/V3) are fixed detector x mapper x
planner triples, but nothing about the architecture requires those exact
combinations: the ablation surface is the full grid of registered components.
This module replaces the enum ``if/else`` dispatch that used to live in
:class:`~repro.core.landing_system.LandingSystem` with a string-keyed
:class:`ComponentRegistry`:

* components are registered under a *kind* (``"detector"``, ``"mapper"``,
  ``"planner"``) and a canonical string key, plus optional aliases;
* each registration declares its **nominal latency** (seconds of desktop-class
  compute per invocation) — the number the HIL resource model scales to
  Jetson-class hardware — so adding a component automatically teaches the
  scheduler its cost;
* factories receive a :class:`ComponentContext` (system config, seed, shared
  detector network, and — for planners — the already-built
  :class:`MappingStack`), so components can be wired without the core knowing
  their constructors.

Registering a custom component is one decorator::

    from repro import register_detector, ComponentContext

    @register_detector("my-detector", latency=0.02)
    def build_my_detector(ctx: ComponentContext):
        return MyDetector(seed=ctx.seed)

    config = LandingSystemConfig.custom(detector="my-detector")

Mappers declare what they *provide* (``"local_grid"``, ``"octree"``,
``"inflated"``) and planners declare what they *require*, which lets
:meth:`ComponentRegistry.valid_combinations` enumerate the buildable subset of
the full ablation grid without instantiating anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.config import LandingSystemConfig

#: The three component kinds a landing system is composed of.
DETECTOR = "detector"
MAPPER = "mapper"
PLANNER = "planner"
KINDS = (DETECTOR, MAPPER, PLANNER)


class ComponentError(LookupError):
    """Raised for unknown keys, duplicate registrations or unbuildable combos."""


@dataclass
class MappingStack:
    """The occupancy-map products a mapper component builds.

    ``local_grid`` / ``octree`` are the raw representations (either may be
    ``None``), ``inflated`` is the collision-check view planners consume, and
    ``primary`` is the object whose :meth:`memory_bytes` feeds the resource
    model.  ``provides`` mirrors the spec's declaration so planner factories
    can give precise error messages.  The stack alone decides which maps a
    depth cloud feeds (:meth:`integrate_cloud`).
    """

    local_grid: Any = None
    octree: Any = None
    inflated: Any = None
    primary: Any = None
    provides: tuple[str, ...] = ()

    def _cloud_maps(self) -> tuple[Any, ...]:
        """The maps a depth cloud feeds: the local grid and the octree, or
        else a custom primary map with ``integrate_cloud``."""
        built_in = tuple(m for m in (self.local_grid, self.octree) if m is not None)
        if built_in or not hasattr(self.primary, "integrate_cloud"):
            return built_in
        return (self.primary,)

    @property
    def maps_clouds(self) -> bool:
        """Whether a depth cloud reaches any map of this stack."""
        return bool(self._cloud_maps())

    def integrate_cloud(self, cloud: Any) -> None:
        """Fuse ``cloud`` into every map that takes clouds (none for MLS-V1)."""
        for target in self._cloud_maps():
            target.integrate_cloud(cloud)

    def memory_bytes(self) -> int:
        # Duck-typed (like cloud integration): custom primary maps without a
        # memory model simply report zero to the resource model.
        if self.primary is not None and hasattr(self.primary, "memory_bytes"):
            return int(self.primary.memory_bytes())
        return 0


@dataclass
class ComponentContext:
    """Everything a component factory may need to build its component.

    Attributes:
        config: the full landing-system configuration being instantiated.
        seed: per-run seed (used by sampling planners).
        detector_network: optional pre-trained network shared across runs.
        mapping: the already-built :class:`MappingStack`; populated before
            planner factories run, ``None`` while the mapper itself is built.
    """

    config: "LandingSystemConfig | None" = None
    seed: int = 0
    detector_network: Any = None
    mapping: MappingStack | None = None


@dataclass(frozen=True)
class ComponentSpec:
    """One registered component: its factory plus declared characteristics."""

    kind: str
    key: str
    factory: Callable[[ComponentContext], Any]
    nominal_latency: float = 0.0
    description: str = ""
    aliases: tuple[str, ...] = ()
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def build(self, context: ComponentContext) -> Any:
        return self.factory(context)

    @property
    def provides(self) -> tuple[str, ...]:
        """Mapper capability declaration (empty for other kinds)."""
        return tuple(self.metadata.get("provides", ()))

    @property
    def requires(self) -> tuple[str, ...]:
        """Planner requirement declaration (empty for other kinds)."""
        return tuple(self.metadata.get("requires", ()))


class ComponentRegistry:
    """String-keyed registry of detector / mapper / planner components."""

    def __init__(self) -> None:
        self._specs: dict[str, dict[str, ComponentSpec]] = {kind: {} for kind in KINDS}
        self._aliases: dict[str, dict[str, str]] = {kind: {} for kind in KINDS}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        kind: str,
        key: str,
        *,
        latency: float = 0.0,
        aliases: tuple[str, ...] | list[str] = (),
        description: str = "",
        metadata: Mapping[str, Any] | None = None,
        overwrite: bool = False,
    ) -> Callable[[Callable[[ComponentContext], Any]], Callable[[ComponentContext], Any]]:
        """Decorator registering ``factory`` as component ``key`` of ``kind``."""
        self._check_kind(kind)

        def decorator(factory: Callable[[ComponentContext], Any]):
            doc = (factory.__doc__ or "").strip()
            spec = ComponentSpec(
                kind=kind,
                key=key,
                factory=factory,
                nominal_latency=latency,
                description=description or (doc.splitlines()[0] if doc else ""),
                aliases=tuple(aliases),
                metadata=dict(metadata or {}),
            )
            self.register_spec(spec, overwrite=overwrite)
            return factory

        return decorator

    def register_spec(self, spec: ComponentSpec, *, overwrite: bool = False) -> None:
        """Register an already-built :class:`ComponentSpec`."""
        self._check_kind(spec.kind)
        table = self._specs[spec.kind]
        aliases = self._aliases[spec.kind]
        if not overwrite:
            for name in (spec.key, *spec.aliases):
                if name in table or name in aliases:
                    raise ComponentError(
                        f"{spec.kind} {name!r} is already registered; "
                        f"pass overwrite=True to replace it"
                    )
        table[spec.key] = spec
        for alias in spec.aliases:
            aliases[alias] = spec.key

    def unregister(self, kind: str, key: str) -> None:
        """Remove a component (used by tests and plugin teardown)."""
        spec = self.spec(kind, key)
        del self._specs[kind][spec.key]
        for alias in spec.aliases:
            self._aliases[kind].pop(alias, None)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def spec(self, kind: str, key: str) -> ComponentSpec:
        """Resolve ``key`` (a key or an alias) to its spec."""
        self._check_kind(kind)
        try:
            return self._specs[kind][self._aliases[kind].get(key, key)]
        except KeyError:
            known = ", ".join(sorted(self._specs[kind])) or "<none>"
            raise ComponentError(
                f"unknown {kind} {key!r}; registered {kind}s: {known}"
            ) from None

    def has(self, kind: str, key: str) -> bool:
        try:
            self.spec(kind, key)
            return True
        except ComponentError:
            return False

    def canonical_key(self, kind: str, key: str) -> str:
        """The canonical string key ``key`` resolves to."""
        return self.spec(kind, key).key

    def keys(self, kind: str) -> tuple[str, ...]:
        self._check_kind(kind)
        return tuple(sorted(self._specs[kind]))

    def nominal_latency(self, kind: str, key: str) -> float:
        """Declared desktop-class latency (seconds) of one component call."""
        return self.spec(kind, key).nominal_latency

    def create(self, kind: str, key: str, context: ComponentContext | None = None) -> Any:
        """Build the component ``key`` of ``kind`` with ``context``."""
        return self.spec(kind, key).build(context or ComponentContext())

    # ------------------------------------------------------------------ #
    # ablation-grid helpers
    # ------------------------------------------------------------------ #
    def combinations(self) -> Iterator[tuple[str, str, str]]:
        """Every (detector, mapper, planner) key triple, valid or not."""
        for detector in self.keys(DETECTOR):
            for mapper in self.keys(MAPPER):
                for planner in self.keys(PLANNER):
                    yield detector, mapper, planner

    def is_valid_combination(self, mapper: str, planner: str) -> bool:
        """Whether ``mapper`` provides everything ``planner`` requires."""
        provided = set(self.spec(MAPPER, mapper).provides)
        return set(self.spec(PLANNER, planner).requires) <= provided

    def valid_combinations(self) -> Iterator[tuple[str, str, str]]:
        """The buildable subset of :meth:`combinations`."""
        for detector, mapper, planner in self.combinations():
            if self.is_valid_combination(mapper, planner):
                yield detector, mapper, planner

    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in KINDS:
            raise ComponentError(f"unknown component kind {kind!r}; expected one of {KINDS}")


#: The process-global registry the landing system builds from.
REGISTRY = ComponentRegistry()


def register_detector(key: str, **kwargs):
    """Register a marker-detector factory on the global registry."""
    return REGISTRY.register(DETECTOR, key, **kwargs)


def register_mapper(key: str, **kwargs):
    """Register an occupancy-mapper factory on the global registry."""
    return REGISTRY.register(MAPPER, key, **kwargs)


def register_planner(key: str, **kwargs):
    """Register a path-planner factory on the global registry."""
    return REGISTRY.register(PLANNER, key, **kwargs)


# ---------------------------------------------------------------------- #
# built-in components (the paper's ablation axes)
# ---------------------------------------------------------------------- #
def _inflation_config(context: ComponentContext):
    from repro.mapping.inflation import InflationConfig

    config = context.config
    if config is None:
        return InflationConfig()
    return InflationConfig(
        vehicle_radius=config.safety.vehicle_radius,
        safety_margin=config.safety.obstacle_clearance,
    )


@register_detector(
    "opencv",
    latency=0.012,
    aliases=("classical",),
    description="OpenCV-style quad detection + ID decode (MLS-V1)",
    metadata={
        "proposes_unidentified": False,
        "needs_network": False,
    },
)
def _build_classical_detector(context: ComponentContext):
    from repro.perception.classical import ClassicalMarkerDetector

    return ClassicalMarkerDetector()


@register_detector(
    "tph-yolo",
    latency=0.030,
    aliases=("learned", "yolo"),
    description="Learned patch detector standing in for TPH-YOLO (MLS-V2/V3)",
    metadata={
        "proposes_unidentified": True,
        "needs_network": True,
    },
)
def _build_learned_detector(context: ComponentContext):
    from repro.perception.learned import LearnedMarkerDetector

    return LearnedMarkerDetector(network=context.detector_network)


@register_mapper(
    "none",
    latency=0.0,
    description="No occupancy map (MLS-V1: no obstacle avoidance)",
    metadata={"provides": ()},
)
def _build_no_mapper(context: ComponentContext) -> MappingStack:
    return MappingStack()


@register_mapper(
    "dense-grid",
    latency=0.008,
    aliases=("grid", "voxel-grid"),
    description="Sliding-window dense voxel grid (MLS-V2)",
    metadata={"provides": ("local_grid", "inflated")},
)
def _build_dense_grid_mapper(context: ComponentContext) -> MappingStack:
    from repro.mapping.inflation import InflatedMap
    from repro.mapping.voxel_grid import VoxelGrid

    grid = VoxelGrid()
    inflated = InflatedMap(grid, _inflation_config(context))
    return MappingStack(
        local_grid=grid, inflated=inflated, primary=grid, provides=("local_grid", "inflated")
    )


@register_mapper(
    "octomap",
    latency=0.028,
    aliases=("octree",),
    description="Global probabilistic octree (MLS-V3)",
    metadata={"provides": ("octree", "inflated")},
)
def _build_octomap_mapper(context: ComponentContext) -> MappingStack:
    from repro.mapping.inflation import InflatedMap
    from repro.mapping.octomap import OcTree

    tree = OcTree()
    inflated = InflatedMap(tree, _inflation_config(context))
    return MappingStack(
        octree=tree, inflated=inflated, primary=tree, provides=("octree", "inflated")
    )


@register_planner(
    "straight-line",
    latency=0.001,
    aliases=("straight",),
    description="Direct start-to-goal segment, no avoidance (MLS-V1)",
    metadata={"requires": ()},
)
def _build_straight_line_planner(context: ComponentContext):
    from repro.planning.straight_line import StraightLinePlanner

    return StraightLinePlanner()


@register_planner(
    "ego-local-astar",
    latency=0.035,
    aliases=("ego", "ego-planner", "local-astar"),
    description="EGO-style bounded local A* over the dense grid (MLS-V2)",
    metadata={"requires": ("local_grid", "inflated")},
)
def _build_ego_planner(context: ComponentContext):
    from repro.planning.ego_planner import EgoLocalPlanner

    mapping = context.mapping
    if mapping is None or mapping.local_grid is None or mapping.inflated is None:
        raise ComponentError(
            "the 'ego-local-astar' planner requires a mapper providing a dense "
            "local grid and its inflated view (e.g. mapper='dense-grid')"
        )
    return EgoLocalPlanner(mapping.inflated)


@register_planner(
    "rrt-star",
    latency=0.120,
    aliases=("rrt",),
    description="Sampling-based RRT* over the inflated occupancy map (MLS-V3)",
    metadata={"requires": ("inflated",)},
)
def _build_rrt_star_planner(context: ComponentContext):
    from repro.planning.rrt_star import RrtStarConfig, RrtStarPlanner

    mapping = context.mapping
    if mapping is None or mapping.inflated is None:
        raise ComponentError(
            "the 'rrt-star' planner requires a mapper providing an inflated "
            "occupancy map (e.g. mapper='dense-grid' or mapper='octomap')"
        )
    return RrtStarPlanner(mapping.inflated, RrtStarConfig(seed=context.seed))
