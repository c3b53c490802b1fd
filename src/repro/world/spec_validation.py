"""Structured validation for suite-spec and fault-axis submissions.

``SuiteSpec.from_dict`` / ``FaultSpec.from_dict`` raise on the *first*
problem with a bare ``ValueError``, which is the right contract for trusted
internal callers but a poor one for submission surfaces: a CLI user or an
HTTP client wants *every* problem, each tied to the field that caused it.

This module walks a submitted payload field by field, collecting
:class:`SpecIssue` objects (``field`` in dotted/indexed path form, plus a
``reason``), and raises one :class:`SpecValidationError` carrying them all.
It is shared by:

* the campaign service's ``POST /jobs`` endpoint (400 responses carry the
  issue list as JSON), and
* the ``--spec`` flag of ``python -m repro.scenarios``, ``repro.dispatch
  plan``, ``repro.faults sweep/bisect`` and ``repro.service submit``,

so the submission surfaces agree on what a valid spec is — the final
authority is still ``SuiteSpec.from_dict`` itself, which is always invoked
last so the validator can never *accept* something the constructor refuses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from repro.faults.spec import FAULT_PRESETS, FaultSpec, resolve_faults
from repro.world.scenario_gen import ScenarioSpec, SuiteSpec, Uniform


@dataclass(frozen=True)
class SpecIssue:
    """One field-level problem with a submitted spec."""

    field: str
    reason: str

    def to_dict(self) -> dict[str, str]:
        return {"field": self.field, "reason": self.reason}


class SpecValidationError(ValueError):
    """A submission failed validation; ``issues`` lists every problem.

    Subclasses ``ValueError`` so existing CLI error handlers (which catch
    ``ValueError`` and exit 2) keep working; ``str()`` renders one line per
    issue, and :meth:`to_payload` is the HTTP 400 body shape.
    """

    def __init__(self, issues: list[SpecIssue], *, subject: str = "suite spec") -> None:
        self.issues = list(issues)
        self.subject = subject
        lines = [f"invalid {subject}: {len(self.issues)} problem(s)"]
        lines.extend(f"  - {issue.field}: {issue.reason}" for issue in self.issues)
        super().__init__("\n".join(lines))

    def to_payload(self) -> dict[str, Any]:
        return {
            "error": f"invalid {self.subject}",
            "issues": [issue.to_dict() for issue in self.issues],
        }


# ---------------------------------------------------------------------- #
# field-level checks
# ---------------------------------------------------------------------- #
_RANGE_FIELDS = {
    "weather_severity", "wind_speed", "gust_intensity", "gps_degradation",
    "image_noise", "precipitation", "obstacle_density", "lighting",
    "target_occlusion", "gps_error", "target_distance", "marker_size",
}

_INT_FIELDS = {"count", "seed", "repetitions", "map_pool"}


def _check_scenario_spec(data: Any, issues: list[SpecIssue], prefix: str) -> None:
    if not isinstance(data, dict):
        issues.append(
            SpecIssue(prefix, f"expected a ScenarioSpec object, got {type(data).__name__}")
        )
        return
    known = {f.name for f in fields(ScenarioSpec)}
    for key in sorted(set(data) - known):
        issues.append(SpecIssue(f"{prefix}.{key}", "unknown ScenarioSpec field"))
    for key in sorted(_RANGE_FIELDS & set(data)):
        value = data[key]
        if value is None:
            continue
        try:
            Uniform.from_value(value)
        except (ValueError, KeyError, TypeError) as error:
            issues.append(SpecIssue(f"{prefix}.{key}", str(error)))
    if issues:
        return
    try:
        ScenarioSpec.from_dict(data)
    except (ValueError, KeyError, TypeError) as error:
        issues.append(SpecIssue(prefix, str(error)))


def validate_fault_axis(value: Any) -> tuple[FaultSpec, ...]:
    """Validate a submitted fault axis; raises :class:`SpecValidationError`.

    A string must be a fault *preset* name — never a server-side file path —
    and spec objects must be inline dicts.
    """
    issues: list[SpecIssue] = []
    if value is None:
        return ()
    if isinstance(value, str):
        key = value.strip().lower()
        if key not in FAULT_PRESETS:
            raise SpecValidationError(
                [SpecIssue("faults", f"unknown fault preset {value!r}; expected one "
                                     f"of {sorted(FAULT_PRESETS)} (file paths are "
                                     f"not accepted on this surface)")],
                subject="fault axis",
            )
        return FAULT_PRESETS[key]
    if isinstance(value, list):
        specs: list[FaultSpec] = []
        for index, item in enumerate(value):
            if not isinstance(item, dict):
                issues.append(
                    SpecIssue(f"faults[{index}]",
                              f"expected a FaultSpec object, got {type(item).__name__}")
                )
                continue
            try:
                specs.append(FaultSpec.from_dict(item))
            except (ValueError, KeyError, TypeError) as error:
                issues.append(SpecIssue(f"faults[{index}]", str(error)))
        if issues:
            raise SpecValidationError(issues, subject="fault axis")
        return tuple(specs)
    try:
        return resolve_faults(value)
    except (ValueError, TypeError, OSError) as error:
        raise SpecValidationError(
            [SpecIssue("faults", str(error))], subject="fault axis"
        ) from error


#: Why a spec's ``faults`` key is refused: the fault axis is the campaign's,
#: never the suite's.
_FAULTS_IN_SPEC = (
    "a suite spec carries no fault axis; give it as the campaign's faults "
    "(--faults, or the submission's \"faults\")"
)


def validate_suite_spec(data: Any) -> SuiteSpec:
    """Validate a submitted SuiteSpec payload; returns the constructed spec.

    Raises :class:`SpecValidationError` carrying one :class:`SpecIssue` per
    problem instead of ``SuiteSpec.from_dict``'s first-error ``ValueError``.
    """
    issues: list[SpecIssue] = []
    if not isinstance(data, dict):
        raise SpecValidationError(
            [SpecIssue("", f"expected a SuiteSpec object, got {type(data).__name__}")]
        )
    known = {f.name for f in fields(SuiteSpec)}
    for key in sorted(set(data) - known):
        issues.append(
            SpecIssue(key, _FAULTS_IN_SPEC if key == "faults" else "unknown SuiteSpec field")
        )
    for key in sorted(_INT_FIELDS & set(data)):
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, int):
            issues.append(
                SpecIssue(key, f"expected an integer, got {type(value).__name__}")
            )
        elif key != "seed" and value <= 0:
            issues.append(SpecIssue(key, f"must be positive, got {value}"))
    if "name" in data and not isinstance(data["name"], str):
        issues.append(
            SpecIssue("name", f"expected a string, got {type(data['name']).__name__}")
        )
    if "scenario" in data and not isinstance(data["scenario"], ScenarioSpec):
        _check_scenario_spec(data["scenario"], issues, "scenario")
    if issues:
        raise SpecValidationError(issues)
    try:
        return SuiteSpec.from_dict(data)
    except (ValueError, KeyError, TypeError) as error:
        # The validator's per-field checks missed something the constructor
        # enforces; surface it structurally all the same.
        raise SpecValidationError([SpecIssue("", str(error))]) from error


def load_suite_spec(path: str | Path) -> SuiteSpec:
    """Read and validate a SuiteSpec JSON file (the ``--spec`` file format)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise FileNotFoundError(f"cannot read suite spec {path}: {error}") from error
    except ValueError as error:
        raise SpecValidationError(
            [SpecIssue("", f"{path} is not valid JSON: {error}")]
        ) from error
    return validate_suite_spec(data)
