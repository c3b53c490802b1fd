"""Procedural scenario generation: declarative specs over stress axes.

The paper evaluates on a fixed 10-map x 10-scenario suite, half adverse
weather (§IV.B.1).  This module generalises that generator into a declarative
layer: a :class:`ScenarioSpec` describes *distributions* over map style,
marker placement / occlusion and the simulation's stress axes, and a
:class:`SuiteSpec` samples an arbitrarily large :class:`ScenarioSuite` from
it — deterministically, so the same seed always yields a byte-identical
suite (see :meth:`ScenarioSuite.to_jsonl`).

Stress axes (all drawn from the existing simulation surface):

========================  ====================================================
axis                      simulation hook
========================  ====================================================
``wind``                  ``Weather.wind_speed`` / ``gust_intensity`` →
                          :class:`repro.vehicle.wind.WindModel`
``adverse-weather``       fog / rain / glare / storm presets
                          (:mod:`repro.world.weather`)
``gps-drift``             ``Weather.gps_degradation`` →
                          :class:`repro.sensors.gps.GpsSensor`,
                          :mod:`repro.realworld.gps_drift`
``sensor-faults``         ``Weather.image_noise`` / ``precipitation`` →
                          camera noise and depth-cloud speckle
                          (:mod:`repro.realworld.sensor_faults`)
``obstacle-density``      ``Scenario.obstacle_density`` scaling the
                          :class:`repro.world.map_generator.MapSpec` counts
``low-light``             ``Scenario.lighting`` → degraded imaging via
                          ``Scenario.effective_weather``
``marker-stress``         target occlusion and decoy pressure
                          (:mod:`repro.world.markers`)
========================  ====================================================

Determinism contract: scenario ``index`` of a suite draws from its own
``default_rng([suite_seed, index])`` stream, so generation is independent of
``count`` — the first N scenarios of a 500-scenario suite equal the
N-scenario suite with the same seed, and re-generating with the same seed is
byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Iterable

import numpy as np

from repro.world.map_generator import MapStyle
from repro.world.scenario import Scenario, sample_marker_placement
from repro.world.scenario_suite import ScenarioSuite, build_evaluation_suite
from repro.world.weather import Weather

#: The stress axes a generated scenario can exercise, with the module that
#: implements each effect.  ``Scenario.active_stress_axes`` reports against
#: these names; the CLI's ``describe`` prints per-axis coverage.
STRESS_AXES: dict[str, str] = {
    "wind": "mean wind + Dryden-like gusts (repro.vehicle.wind)",
    "adverse-weather": "fog / rain / glare / storm presets (repro.world.weather)",
    "gps-drift": "weather-driven GPS random-walk drift (repro.realworld.gps_drift)",
    "sensor-faults": "camera noise + depth-cloud speckle (repro.realworld.sensor_faults)",
    "obstacle-density": "scaled procedural obstacle counts (repro.world.map_generator)",
    "low-light": "dusk/night imaging degradation (Scenario.effective_weather)",
    "marker-stress": "target occlusion + decoy pressure (repro.world.markers)",
}


@dataclass(frozen=True)
class Uniform:
    """A closed uniform range ``[low, high]`` sampled per scenario."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"empty range: [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    @staticmethod
    def fixed(value: float) -> "Uniform":
        return Uniform(value, value)

    @classmethod
    def from_value(cls, value: Any) -> "Uniform":
        """Coerce a JSON-ish value: ``{"low","high"}``, ``[low, high]`` or a number."""
        if isinstance(value, Uniform):
            return value
        if isinstance(value, dict):
            return cls(float(value["low"]), float(value["high"]))
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return cls(float(value[0]), float(value[1]))
        if isinstance(value, (int, float)):
            return cls.fixed(float(value))
        raise ValueError(f"cannot interpret {value!r} as a Uniform range")


def _clamp(value: float, low: float, high: float) -> float:
    return min(high, max(low, value))


@dataclass(frozen=True)
class ScenarioSpec:
    """Distributions from which one scenario is drawn.

    ``None`` for an optional axis means "leave whatever the sampled weather
    preset produced"; a :class:`Uniform` engages the axis and acts as a floor
    on the corresponding weather field (so e.g. a storm's own wind is never
    *reduced* by a mild wind axis).
    """

    map_styles: tuple[MapStyle, ...] = (MapStyle.RURAL, MapStyle.SUBURBAN, MapStyle.URBAN)
    adverse_probability: float = 0.5
    weather_severity: Uniform = field(default_factory=lambda: Uniform(0.3, 1.0))
    wind_speed: Uniform | None = None
    gust_intensity: Uniform | None = None
    gps_degradation: Uniform | None = None
    image_noise: Uniform | None = None
    precipitation: Uniform | None = None
    obstacle_density: Uniform = field(default_factory=lambda: Uniform.fixed(1.0))
    lighting: Uniform = field(default_factory=lambda: Uniform.fixed(1.0))
    target_occlusion: Uniform | None = None
    decoy_count: tuple[int, int] = (1, 3)
    gps_error: Uniform = field(default_factory=lambda: Uniform(1.0, 5.0))
    target_distance: Uniform = field(default_factory=lambda: Uniform(25.0, 45.0))
    marker_size: Uniform = field(default_factory=lambda: Uniform.fixed(0.8))
    cruise_altitude: float = 15.0

    def __post_init__(self) -> None:
        if not self.map_styles:
            raise ValueError("map_styles must not be empty")
        if not 0.0 <= self.adverse_probability <= 1.0:
            raise ValueError("adverse_probability must be in [0, 1]")
        if self.decoy_count[1] < self.decoy_count[0] or self.decoy_count[0] < 0:
            raise ValueError(f"invalid decoy_count range {self.decoy_count}")

    # ------------------------------------------------------------------ #
    def sample_weather(self, rng: np.random.Generator) -> Weather:
        """Draw a base weather preset, then apply the axis floors."""
        if rng.random() < self.adverse_probability:
            weather = Weather.sample_adverse(
                rng,
                severity_range=(
                    _clamp(self.weather_severity.low, 0.0, 1.0),
                    _clamp(self.weather_severity.high, 0.0, 1.0),
                ),
            )
        else:
            weather = Weather.sample_normal(rng)

        overrides: dict[str, float] = {}
        if self.wind_speed is not None:
            overrides["wind_speed"] = max(weather.wind_speed, self.wind_speed.sample(rng))
        if self.gust_intensity is not None:
            overrides["gust_intensity"] = _clamp(
                max(weather.gust_intensity, self.gust_intensity.sample(rng)), 0.0, 1.0
            )
        if self.gps_degradation is not None:
            overrides["gps_degradation"] = _clamp(
                max(weather.gps_degradation, self.gps_degradation.sample(rng)), 0.0, 1.0
            )
        if self.image_noise is not None:
            overrides["image_noise"] = max(weather.image_noise, self.image_noise.sample(rng))
        if self.precipitation is not None:
            overrides["precipitation"] = _clamp(
                max(weather.precipitation, self.precipitation.sample(rng)), 0.0, 1.0
            )
        return replace(weather, **overrides) if overrides else weather

    def sample(
        self,
        rng: np.random.Generator,
        scenario_id: str,
        map_style: MapStyle,
        map_seed: int,
        seed: int,
    ) -> Scenario:
        """Draw one fully specified scenario from this spec."""
        marker_position, gps_target = sample_marker_placement(
            rng,
            target_distance_range=(self.target_distance.low, self.target_distance.high),
            gps_error_range=(self.gps_error.low, self.gps_error.high),
        )
        weather = self.sample_weather(rng)
        occlusion = (
            _clamp(self.target_occlusion.sample(rng), 0.0, 0.95)
            if self.target_occlusion is not None
            else None
        )
        return Scenario(
            scenario_id=scenario_id,
            map_style=map_style,
            map_seed=map_seed,
            weather=weather,
            gps_target=gps_target,
            marker_position=marker_position,
            decoy_count=int(rng.integers(self.decoy_count[0], self.decoy_count[1] + 1)),
            cruise_altitude=self.cruise_altitude,
            marker_size=self.marker_size.sample(rng),
            seed=seed,
            obstacle_density=max(0.0, self.obstacle_density.sample(rng)),
            lighting=_clamp(self.lighting.sample(rng), 0.05, 1.0),
            target_occlusion=occlusion,
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible description (for the CLI and suite headers)."""
        data = asdict(self)
        data["map_styles"] = [style.value for style in self.map_styles]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (exact round trip).

        Missing keys fall back to defaults, so hand-written partial dicts
        (e.g. a ``--spec`` JSON file for ``python -m repro.dispatch``) are
        accepted too.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec keys: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        range_fields = {
            "weather_severity", "wind_speed", "gust_intensity", "gps_degradation",
            "image_noise", "precipitation", "obstacle_density", "lighting",
            "target_occlusion", "gps_error", "target_distance", "marker_size",
        }
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            if key == "map_styles":
                kwargs[key] = tuple(MapStyle(style) for style in value)
            elif key == "decoy_count":
                kwargs[key] = (int(value[0]), int(value[1]))
            elif key in range_fields and value is not None:
                kwargs[key] = Uniform.from_value(value)
            else:
                kwargs[key] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class SuiteSpec:
    """A reproducible population of scenarios drawn from a :class:`ScenarioSpec`.

    Attributes:
        name: suite label; prefixes every scenario id.
        count: number of scenarios to generate.
        seed: master seed; scenario ``index`` draws from the independent
            ``default_rng([seed, index])`` stream.
        repetitions: repetitions per scenario when run as a campaign.
        map_pool: number of distinct maps the scenarios cycle through.
        scenario: the per-scenario distributions.

    A spec describes scenarios only: a campaign's fault axis comes from
    ``Campaign.faults(...)`` (``--faults`` on the CLI).
    """

    name: str = "custom"
    count: int = 50
    seed: int = 0
    repetitions: int = 1
    map_pool: int = 10
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("count must be positive")
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        if self.map_pool <= 0:
            raise ValueError("map_pool must be positive")

    def generate(self) -> ScenarioSuite:
        """Sample the suite (same spec → byte-identical result)."""
        scenarios: list[Scenario] = []
        styles = self.scenario.map_styles
        for index in range(self.count):
            rng = np.random.default_rng([self.seed, index])
            map_index = index % self.map_pool
            scenario_seed = int(
                np.random.SeedSequence((self.seed, index)).generate_state(1)[0]
            )
            scenarios.append(
                self.scenario.sample(
                    rng,
                    scenario_id=f"{self.name}-{self.seed}-{index:04d}",
                    map_style=styles[map_index % len(styles)],
                    map_seed=self.seed * 1000 + map_index,
                    seed=scenario_seed,
                )
            )
        return ScenarioSuite(
            scenarios=scenarios, repetitions=self.repetitions, name=self.name
        )

    def with_overrides(
        self,
        count: int | None = None,
        seed: int | None = None,
        repetitions: int | None = None,
    ) -> "SuiteSpec":
        """Copy with the CLI-exposed knobs overridden."""
        updates: dict[str, Any] = {}
        if count is not None:
            updates["count"] = count
        if seed is not None:
            updates["seed"] = seed
        if repetitions is not None:
            updates["repetitions"] = repetitions
        return replace(self, **updates) if updates else self

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["scenario"] = self.scenario.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SuiteSpec":
        """Rebuild a suite spec from :meth:`to_dict` output.

        The inverse that makes specs a file format: a spec exported (or
        hand-written) as JSON can drive ``generate_suite`` and the dispatch
        planner's ``--spec`` option on any machine.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SuiteSpec keys: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs: dict[str, Any] = dict(data)
        scenario = kwargs.pop("scenario", None)
        if scenario is not None and not isinstance(scenario, ScenarioSpec):
            scenario = ScenarioSpec.from_dict(scenario)
        if scenario is not None:
            kwargs["scenario"] = scenario
        return cls(**kwargs)


# ---------------------------------------------------------------------- #
# presets
# ---------------------------------------------------------------------- #
def _stress_spec() -> ScenarioSpec:
    """Every axis engaged over a broad range (the default generator)."""
    return ScenarioSpec(
        adverse_probability=0.5,
        wind_speed=Uniform(0.0, 9.0),
        gust_intensity=Uniform(0.0, 0.8),
        gps_degradation=Uniform(0.0, 0.8),
        image_noise=Uniform(0.01, 0.09),
        precipitation=Uniform(0.0, 0.8),
        obstacle_density=Uniform(0.6, 2.0),
        lighting=Uniform(0.35, 1.0),
        target_occlusion=Uniform(0.0, 0.45),
        decoy_count=(1, 6),
    )


#: Named suite presets accepted by :func:`suite_preset` and the CLI.  The
#: paper's fixed 10x10 suite is the special-cased ``"paper"`` entry.
SUITE_PRESETS: dict[str, SuiteSpec] = {
    "stress": SuiteSpec(name="stress", count=100, scenario=_stress_spec()),
    "nominal": SuiteSpec(
        name="nominal",
        count=50,
        scenario=ScenarioSpec(adverse_probability=0.0, decoy_count=(0, 2)),
    ),
    "windy": SuiteSpec(
        name="windy",
        count=50,
        scenario=ScenarioSpec(
            adverse_probability=0.3,
            wind_speed=Uniform(4.0, 11.0),
            gust_intensity=Uniform(0.3, 0.9),
        ),
    ),
    "gps-denied": SuiteSpec(
        name="gps-denied",
        count=50,
        scenario=ScenarioSpec(
            adverse_probability=0.4, gps_degradation=Uniform(0.5, 1.0)
        ),
    ),
    "night": SuiteSpec(
        name="night",
        count=50,
        scenario=ScenarioSpec(
            adverse_probability=0.3,
            lighting=Uniform(0.2, 0.55),
            image_noise=Uniform(0.02, 0.06),
        ),
    ),
    "cluttered": SuiteSpec(
        name="cluttered",
        count=50,
        map_pool=6,
        scenario=ScenarioSpec(
            map_styles=(MapStyle.SUBURBAN, MapStyle.URBAN),
            obstacle_density=Uniform(1.5, 2.5),
            decoy_count=(2, 6),
        ),
    ),
    "marker-hostile": SuiteSpec(
        name="marker-hostile",
        count=50,
        scenario=ScenarioSpec(
            target_occlusion=Uniform(0.2, 0.6),
            decoy_count=(4, 7),
            gps_error=Uniform(3.0, 8.0),
        ),
    ),
    "smoke": SuiteSpec(
        name="smoke",
        count=2,
        map_pool=2,
        scenario=ScenarioSpec(adverse_probability=0.5, decoy_count=(1, 2)),
    ),
}

#: Presets resolvable by :func:`suite_preset` (includes the paper suite).
PRESET_NAMES: tuple[str, ...] = ("paper",) + tuple(SUITE_PRESETS)


def suite_preset(
    name: str,
    count: int | None = None,
    seed: int | None = None,
    repetitions: int | None = None,
) -> ScenarioSuite:
    """Build a named suite preset, optionally overriding its size/seed.

    ``"paper"`` reproduces the 10-map x 10-scenario evaluation suite through
    :func:`build_evaluation_suite`; every other name is a :class:`SuiteSpec`
    from :data:`SUITE_PRESETS`.
    """
    key = name.strip().lower()
    if key == "paper":
        suite = build_evaluation_suite(base_seed=2025 if seed is None else seed)
        if count is not None:
            if count > len(suite):
                raise ValueError(
                    f"the paper suite is fixed at {len(suite)} scenarios; "
                    f"count={count} is not available (use a generated preset "
                    f"such as 'stress' for larger populations)"
                )
            suite = suite.subset(count)
        if repetitions is not None:
            suite.repetitions = repetitions
        suite.name = "paper"
        return suite
    if key not in SUITE_PRESETS:
        raise ValueError(
            f"unknown suite preset {name!r}; expected one of {sorted(PRESET_NAMES)}"
        )
    return SUITE_PRESETS[key].with_overrides(count, seed, repetitions).generate()


def generate_suite(
    spec: SuiteSpec | str = "stress",
    count: int | None = None,
    seed: int | None = None,
    repetitions: int | None = None,
) -> ScenarioSuite:
    """Generate a suite from a :class:`SuiteSpec` or a preset name."""
    if isinstance(spec, str):
        return suite_preset(spec, count, seed, repetitions)
    return spec.with_overrides(count, seed, repetitions).generate()


# ---------------------------------------------------------------------- #
# introspection
# ---------------------------------------------------------------------- #
def axis_coverage(scenarios: Iterable[Scenario]) -> dict[str, int]:
    """How many scenarios exercise each stress axis (all axes always listed)."""
    coverage = {axis: 0 for axis in STRESS_AXES}
    for scenario in scenarios:
        for axis in scenario.active_stress_axes:
            coverage[axis] += 1
    return coverage
