"""Fault specifications: the failure-mode taxonomy and its file format.

A :class:`FaultSpec` names one *injection point* (a target component and a
fault mode drawn from :data:`FAULT_MODES`), an *activation schedule* (a time
window, an altitude trigger, a per-run arming probability, or any
combination) and a *severity* in ``[0, 1]`` scaling the magnitude of the
perturbation.  Specs are frozen, picklable and JSON round-trippable, which
is what lets them ride inside :class:`~repro.bench.campaign.CampaignJob`
objects, :class:`~repro.world.scenario_gen.SuiteSpec` files and dispatch
plans unchanged.

Determinism contract: every random draw an injected fault makes comes from
its own ``default_rng`` stream seeded by
``sha256(scenario.fingerprint() : repetition : spec_hash)`` (see
:func:`fault_run_seed`).  The stream depends only on *what* is being flown
— never on wall clock, process id or execution order — so byte-identical
reruns, ``.parallel()`` campaigns and dispatch shards all agree on exactly
which faults fire when.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.jsonl import sha16_of_json as _sha, write_json_atomic

#: Injection points: every target component and the fault modes it supports.
#: The implementation of each mode lives in :mod:`repro.faults.harness`.
FAULT_MODES: dict[str, tuple[str, ...]] = {
    "camera": ("dropout", "freeze", "bias", "noise-burst"),
    "depth": ("dropout", "freeze", "bias", "noise-burst"),
    "perception": ("missed-detection", "phantom-detection", "latency-spike"),
    "mapping": ("cell-corruption",),
    "planning": ("timeout", "infeasible"),
    "vehicle": ("ekf-reset", "command-delay"),
}

#: One-line description of each target, for ``python -m repro.faults list``.
TARGET_DESCRIPTIONS: dict[str, str] = {
    "camera": "downward camera frames before marker detection",
    "depth": "depth point clouds before occupancy-map fusion",
    "perception": "the detector's output (wrapped component)",
    "mapping": "occupancy-map contents (phantom cell corruption)",
    "planning": "the planner's output (wrapped component)",
    "vehicle": "the EKF state estimate and the command stream",
}

#: One-line description of each (target, mode) pair.
MODE_DESCRIPTIONS: dict[tuple[str, str], str] = {
    ("camera", "dropout"): "frames are lost: the system sees no image this tick",
    ("camera", "freeze"): "the last pre-fault frame is re-delivered (stale timestamp)",
    ("camera", "bias"): "back-projection pose is offset: detections land displaced",
    ("camera", "noise-burst"): "heavy additive pixel noise on top of the weather",
    ("depth", "dropout"): "point clouds are lost: the map stops updating",
    ("depth", "freeze"): "a stale cloud is re-fused every cycle",
    ("depth", "bias"): "every point is shifted by a fixed offset",
    ("depth", "noise-burst"): "per-point jitter speckles the occupancy map",
    ("perception", "missed-detection"): "true detections are randomly suppressed",
    ("perception", "phantom-detection"): "spurious detections are injected",
    ("perception", "latency-spike"): "detection latency spikes (HIL deadline pressure)",
    ("mapping", "cell-corruption"): "phantom occupied cells appear near the vehicle",
    ("planning", "timeout"): "planning attempts exhaust their budget and fail",
    ("planning", "infeasible"): "the planner reports no path where one exists",
    ("vehicle", "ekf-reset"): "the state estimate jumps and re-converges",
    ("vehicle", "command-delay"): "flight commands reach the autopilot ticks late",
}


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: injection point, activation schedule, severity.

    Attributes:
        target: injection point, a key of :data:`FAULT_MODES`.
        mode: fault mode, one of ``FAULT_MODES[target]``.
        severity: magnitude scale in ``[0, 1]``.
        start: activation-window start, seconds of mission time; ``None``
            draws the start per run from the fault's own RNG stream
            (uniform in [10, 120] s).
        duration: activation-window length in seconds; ``None`` keeps the
            fault active until the mission ends.
        below_altitude: when set, the fault is additionally gated on the
            *estimated* altitude being at or below this value (the harness
            never reads ground truth).
        probability: per-run arming probability; an unarmed fault never
            activates and is reported as such in the run's fault metadata.
        name: label used in reports and slicing; defaults to
            ``"{target}-{mode}"``.
    """

    target: str
    mode: str
    severity: float = 0.5
    start: float | None = 20.0
    duration: float | None = 40.0
    below_altitude: float | None = None
    probability: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.target not in FAULT_MODES:
            raise ValueError(
                f"unknown fault target {self.target!r}; expected one of "
                f"{sorted(FAULT_MODES)}"
            )
        if self.mode not in FAULT_MODES[self.target]:
            raise ValueError(
                f"unknown {self.target} fault mode {self.mode!r}; expected one "
                f"of {list(FAULT_MODES[self.target])}"
            )
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("severity must be in [0, 1]")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.start is not None and self.start < 0:
            raise ValueError("start must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.name:
            object.__setattr__(self, "name", f"{self.target}-{self.mode}")

    # ------------------------------------------------------------------ #
    def spec_hash(self) -> str:
        """16-hex-char content hash of this spec (part of the RNG seed)."""
        return _sha(self.to_dict())

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible dict representation (exact round trip)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a partial dict)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown FaultSpec keys: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)


def ensure_unique_names(specs: Iterable[FaultSpec]) -> tuple[FaultSpec, ...]:
    """Validate that every spec in a fault plan carries a distinct name.

    Coverage accounting and the ``fault`` slicing factor key by name, so two
    specs sharing one (e.g. a severity sweep of the same target+mode relying
    on the auto-generated default) would silently conflate their counters —
    name them explicitly instead (``FaultSpec(..., name="dropout-mild")``).
    """
    specs = tuple(specs)
    names = [spec.name for spec in specs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate fault names {duplicates}: give each spec a distinct "
            f"name (FaultSpec(..., name=...)) so coverage rows and fault "
            f"slices stay per-spec"
        )
    return specs


def fault_run_seed(spec: FaultSpec, scenario_fingerprint: str, repetition: int) -> list[int]:
    """The RNG seed words for one (fault spec, scenario, repetition) triple.

    Derived from content hashes only, so every execution mode — in-process,
    ``.parallel()`` worker pools, dispatch shards on other machines — draws
    the identical stream for the same run.
    """
    digest = hashlib.sha256(
        f"{scenario_fingerprint}:{repetition}:{spec.spec_hash()}".encode("utf-8")
    ).digest()
    return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]


def fault_rng(spec: FaultSpec, scenario_fingerprint: str, repetition: int) -> np.random.Generator:
    """A fresh deterministic generator for one fault in one run."""
    return np.random.default_rng(fault_run_seed(spec, scenario_fingerprint, repetition))


# ---------------------------------------------------------------------- #
# presets and the fault-plan file format
# ---------------------------------------------------------------------- #
def _full_preset() -> tuple[FaultSpec, ...]:
    """Every registered (target, mode) pair once, staggered in time."""
    specs: list[FaultSpec] = []
    start = 15.0
    for target in sorted(FAULT_MODES):
        for mode in FAULT_MODES[target]:
            specs.append(
                FaultSpec(target=target, mode=mode, severity=0.6, start=start, duration=30.0)
            )
            start += 7.0
    return tuple(specs)


#: Named fault-plan presets accepted by ``Campaign.faults(...)`` and the CLI.
FAULT_PRESETS: dict[str, tuple[FaultSpec, ...]] = {
    "smoke": (
        FaultSpec(target="camera", mode="freeze", severity=0.8, start=25.0, duration=20.0),
        FaultSpec(target="planning", mode="timeout", severity=0.7, start=40.0, duration=30.0),
        FaultSpec(target="vehicle", mode="ekf-reset", severity=0.5, start=70.0, duration=25.0),
    ),
    "sensor": (
        FaultSpec(target="camera", mode="dropout", severity=0.7, start=20.0, duration=25.0),
        FaultSpec(target="camera", mode="noise-burst", severity=0.6, start=50.0, duration=25.0),
        FaultSpec(target="depth", mode="dropout", severity=0.7, start=30.0, duration=30.0),
        FaultSpec(target="depth", mode="bias", severity=0.5, start=65.0, duration=30.0),
    ),
    "perception": (
        FaultSpec(target="perception", mode="missed-detection", severity=0.7, start=20.0, duration=40.0),
        FaultSpec(target="perception", mode="phantom-detection", severity=0.5, start=35.0, duration=40.0),
        FaultSpec(target="perception", mode="latency-spike", severity=0.8, start=20.0, duration=60.0),
    ),
    "autonomy": (
        FaultSpec(target="mapping", mode="cell-corruption", severity=0.6, start=25.0, duration=35.0),
        FaultSpec(target="planning", mode="timeout", severity=0.7, start=30.0, duration=30.0),
        FaultSpec(target="planning", mode="infeasible", severity=0.6, start=70.0, duration=25.0),
    ),
    "vehicle": (
        FaultSpec(target="vehicle", mode="ekf-reset", severity=0.7, start=25.0, duration=30.0),
        FaultSpec(target="vehicle", mode="command-delay", severity=0.6, start=60.0, duration=30.0),
    ),
    "full": _full_preset(),
}


def resolve_faults(source: Any) -> tuple[FaultSpec, ...]:
    """Coerce any supported fault source into a tuple of specs.

    Accepts a :class:`FaultSpec`, a preset name, a path to a fault-plan JSON
    file (a list of spec dicts, or ``{"faults": [...]}``), a dict (one spec),
    or an iterable mixing any of these.  Strings are treated as file paths
    when they look like one (exist, end in ``.json``, or contain a path
    separator) and as preset names otherwise.
    """
    if source is None:
        return ()
    if isinstance(source, FaultSpec):
        return (source,)
    if isinstance(source, dict):
        return (FaultSpec.from_dict(source),)
    if isinstance(source, Path):
        return load_fault_plan(source)
    if isinstance(source, str):
        key = source.strip().lower()
        explicitly_path = (
            source.endswith(".json") or "/" in source or "\\" in source
        )
        # Preset names win unless the string is explicitly path-shaped, so a
        # stray file or directory that happens to be called "smoke" cannot
        # shadow the preset.
        if not explicitly_path and key in FAULT_PRESETS:
            return FAULT_PRESETS[key]
        if explicitly_path or Path(source).is_file():
            return load_fault_plan(source)
        raise ValueError(
            f"unknown fault preset {source!r}; expected one of "
            f"{sorted(FAULT_PRESETS)} or a fault-plan JSON file"
        )
    if isinstance(source, Iterable):
        specs: list[FaultSpec] = []
        for item in source:
            specs.extend(resolve_faults(item))
        return tuple(specs)
    raise TypeError(
        f"unsupported fault source {type(source).__name__}; expected a "
        f"FaultSpec, preset name, fault-plan JSON path or iterable of those"
    )


def load_fault_plan(path: str | Path) -> tuple[FaultSpec, ...]:
    """Load a fault-plan JSON file written by :func:`dump_fault_plan`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data = data.get("faults", data)
    if not isinstance(data, list):
        raise ValueError(
            f"{path}: a fault plan is a JSON list of FaultSpec objects "
            f"(or {{'faults': [...]}}), got {type(data).__name__}"
        )
    return tuple(FaultSpec.from_dict(item) for item in data)


def dump_fault_plan(specs: Iterable[FaultSpec], path: str | Path) -> Path:
    """Write specs as a fault-plan JSON file (the ``--faults`` file format)."""
    write_json_atomic(path, {"faults": [spec.to_dict() for spec in specs]}, indent=2)
    return Path(path)
