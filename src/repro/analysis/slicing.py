"""Slice campaign records along scenario factors.

Run records carry only what the mission produced (outcome, errors, a
scenario id and a scenario fingerprint); the *conditions* a run was flown
under — wind, lighting, obstacle density, map, stress axes — live in the
scenario.  This module joins the two through a :class:`ScenarioIndex` and
groups records by any registered factor, producing one streaming
:class:`~repro.analysis.stats.SystemSummary` per (slice label, system).

Record-level factors come from :data:`repro.core.metrics.RECORD_FACTORS`;
this module adds the scenario-joined and context (file header) factors.  A
factor maps a record to a *tuple* of labels, so multi-label factors — a
scenario can exercise several stress axes at once — fan one record into
several slices.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.core.metrics import RECORD_FACTORS, RunRecord
from repro.faults.classifier import activated_faults, failure_mode_label
from repro.world.scenario import Scenario
from repro.world.scenario_gen import SuiteSpec
from repro.world.scenario_suite import ScenarioSuite

from repro.analysis.io import RecordContext
from repro.analysis.stats import SystemSummary

#: Label used when a factor needs a scenario and the join found none.
UNJOINED = "(unjoined)"

#: A factor maps one joined record context to its slice labels.
FactorFn = Callable[[RecordContext], tuple[str, ...]]


# ---------------------------------------------------------------------- #
# banding helpers (shared thresholds with Scenario.active_stress_axes)
# ---------------------------------------------------------------------- #
def wind_band(wind_speed: float) -> str:
    """Coarse Beaufort-like banding of the mean wind speed."""
    if wind_speed < 1.0:
        return "calm (<1 m/s)"
    if wind_speed < 4.0:
        return "light (1-4 m/s)"
    if wind_speed < 8.0:
        return "moderate (4-8 m/s)"
    return "strong (>=8 m/s)"


def lighting_band(lighting: float) -> str:
    """Banding of the scenario lighting axis (1.0 = full daylight)."""
    if lighting >= 0.9:
        return "day (>=0.9)"
    if lighting > 0.55:
        return "dusk (0.55-0.9)"
    return "night (<=0.55)"


def obstacle_band(density: float) -> str:
    """Banding of the obstacle-density multiplier (1.0 = the paper's maps)."""
    if density < 0.8:
        return "sparse (<0.8)"
    if density < 1.3:
        return "nominal (0.8-1.3)"
    return "dense (>=1.3)"


def severity_band(severity: float) -> str:
    """Quartile banding of an injected fault's severity (0..1).

    Quartiles align with the default sweep ladders (dyadic rungs), so a
    severity sweep slices cleanly into the four bands.
    """
    if severity < 0.25:
        return "mild (<0.25)"
    if severity < 0.5:
        return "moderate (0.25-0.5)"
    if severity < 0.75:
        return "severe (0.5-0.75)"
    return "extreme (>=0.75)"


# ---------------------------------------------------------------------- #
# the scenario join
# ---------------------------------------------------------------------- #
class ScenarioIndex:
    """Scenario lookup keyed by id, guarded by content fingerprints.

    A record joins to a scenario when their ids match *and* — whenever both
    sides carry one — their fingerprints agree, so results from an old suite
    never silently inherit factors from a newer suite that reused its ids.
    """

    def __init__(self, scenarios: Iterable[Scenario] = ()) -> None:
        self._by_id: dict[str, Scenario] = {}
        self._fingerprints: dict[str, str] = {}
        self.mismatches = 0
        for scenario in scenarios:
            self.add(scenario)

    def __len__(self) -> int:
        return len(self._by_id)

    def add(self, scenario: Scenario) -> None:
        self._by_id[scenario.scenario_id] = scenario
        self._fingerprints[scenario.scenario_id] = scenario.fingerprint()

    def add_source(self, source: Any) -> None:
        """Fold in a ScenarioSuite, SuiteSpec, preset name or suite JSONL path.

        A string is treated as a file path when it *looks* like one (exists,
        ends in ``.jsonl``, or contains a path separator) and as a preset
        name otherwise — so a typo'd suite path fails with a file error
        instead of being silently reinterpreted as an unknown preset.
        """
        if isinstance(source, ScenarioSuite):
            for scenario in source:
                self.add(scenario)
        elif isinstance(source, SuiteSpec):
            self.add_source(source.generate())
        elif isinstance(source, Scenario):
            self.add(source)
        elif isinstance(source, Path):
            self.add_source(ScenarioSuite.from_jsonl(source))
        elif isinstance(source, str):
            looks_like_path = (
                Path(source).exists()
                or source.endswith(".jsonl")
                or "/" in source
                or "\\" in source
            )
            if looks_like_path:
                self.add_source(ScenarioSuite.from_jsonl(source))
            else:
                from repro.world.scenario_gen import generate_suite

                self.add_source(generate_suite(source))
        else:
            raise TypeError(
                f"unsupported scenario source {type(source).__name__}; expected "
                f"a ScenarioSuite, SuiteSpec, Scenario, suite JSONL path or "
                f"preset name"
            )

    @classmethod
    def from_sources(cls, sources: Iterable[Any]) -> "ScenarioIndex":
        index = cls()
        for source in sources:
            index.add_source(source)
        return index

    def lookup(self, scenario_id: str, fingerprint: str = "") -> Scenario | None:
        scenario = self._by_id.get(scenario_id)
        if scenario is None:
            return None
        if fingerprint and self._fingerprints[scenario_id] != fingerprint:
            self.mismatches += 1
            return None
        return scenario


def join_contexts(
    contexts: Iterable[RecordContext], index: ScenarioIndex | None
) -> Iterator[RecordContext]:
    """Attach scenarios to a context stream (lazily; unmatched stay ``None``)."""
    for context in contexts:
        if index is not None and context.scenario is None:
            context.scenario = index.lookup(
                context.record.scenario_id, context.record.scenario_fingerprint
            )
        yield context


# ---------------------------------------------------------------------- #
# factor registry
# ---------------------------------------------------------------------- #
def _scenario_factor(
    accessor: Callable[[Scenario], tuple[str, ...]],
) -> FactorFn:
    def factor(context: RecordContext) -> tuple[str, ...]:
        if context.scenario is None:
            return (UNJOINED,)
        return accessor(context.scenario)

    return factor


def _stress_axes(scenario: Scenario) -> tuple[str, ...]:
    return scenario.active_stress_axes or ("(no axis)",)


#: Label used by the fault factors when a run had no activated fault.
NO_FAULT = "(no fault)"


def _activated_fault_labels(record: RunRecord, key: str) -> tuple[str, ...]:
    labels = tuple(
        sorted({str(fault.get(key, "(unknown)")) for fault in activated_faults(record)})
    )
    return labels or (NO_FAULT,)


def _fault_severity_bands(record: RunRecord) -> tuple[str, ...]:
    """Severity bands of the record's activated faults (from the persisted
    per-fault metadata, so sweeps slice without needing the fault plan)."""
    bands = set()
    for fault in activated_faults(record):
        severity = fault.get("severity")
        bands.add(
            severity_band(float(severity)) if severity is not None else "(unknown)"
        )
    return tuple(sorted(bands)) or (NO_FAULT,)


#: Every registered factor.  Record-level accessors are lifted from
#: ``repro.core.metrics.RECORD_FACTORS``; the rest need the scenario join
#: (label ``(unjoined)`` when no suite provided the scenario) or the
#: persisted file's header (``platform``).
FACTORS: dict[str, FactorFn] = {
    **{
        name: (lambda context, _accessor=accessor: _accessor(context.record))
        for name, accessor in RECORD_FACTORS.items()
    },
    "stress-axis": _scenario_factor(_stress_axes),
    "wind-band": _scenario_factor(
        lambda scenario: (wind_band(scenario.weather.wind_speed),)
    ),
    "lighting-band": _scenario_factor(
        lambda scenario: (lighting_band(scenario.lighting),)
    ),
    "obstacle-band": _scenario_factor(
        lambda scenario: (obstacle_band(scenario.obstacle_density),)
    ),
    "map": _scenario_factor(lambda scenario: (scenario.map_name,)),
    "map-style": _scenario_factor(lambda scenario: (scenario.map_style.value,)),
    "platform": lambda context: (context.platform or "(unknown)",),
    # Fault-injection factors (see repro.faults): a record lands in one
    # slice per *activated* injected fault, so overlapping faults fan out.
    "fault": lambda context: _activated_fault_labels(context.record, "name"),
    "fault-target": lambda context: _activated_fault_labels(context.record, "target"),
    "fault-severity-band": lambda context: _fault_severity_bands(context.record),
    "failure-mode": lambda context: (failure_mode_label(context.record),),
}

#: Factor names exposed to the CLI, sorted for stable help text.
FACTOR_NAMES: tuple[str, ...] = tuple(sorted(FACTORS))


def resolve_factor(factor: str | FactorFn) -> FactorFn:
    if callable(factor):
        return factor
    if factor not in FACTORS:
        raise ValueError(
            f"unknown slicing factor {factor!r}; expected one of {list(FACTOR_NAMES)}"
        )
    return FACTORS[factor]


def slice_contexts(
    contexts: Iterable[RecordContext],
    factor: str | FactorFn,
    index: ScenarioIndex | None = None,
) -> dict[str, dict[str, SystemSummary]]:
    """Group a context stream into ``{slice label: {system: summary}}``.

    Single pass and streaming: each record updates the counters of every
    slice it belongs to and is then dropped.
    """
    factor_fn = resolve_factor(factor)
    slices: dict[str, dict[str, SystemSummary]] = {}
    for context in join_contexts(contexts, index):
        record = context.record
        for label in factor_fn(context):
            systems = slices.setdefault(label, {})
            summary = systems.get(record.system_name)
            if summary is None:
                summary = systems[record.system_name] = SystemSummary(record.system_name)
            summary.add(record)
    return slices

