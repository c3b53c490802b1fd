"""The severity-sweep driver: a ladder of probes per fault spec.

``run_sweep`` evaluates every ``(spec, severity)`` combination over the
backend's full suite, folds each probe's merged records into a
:class:`~repro.faults.search.curves.CurvePoint`, and persists the curves::

    <out>/
        probes/<spec>-s<severity>-<fingerprint>/   one dispatch dir per probe
        curves/coverage.jsonl                      coverage-vs-severity
        curves/failure-modes.jsonl                 failure-modes-vs-severity
        sweep.md                                   deterministic report

Everything downstream of the probe evaluations is a pure sorted function
of the merged records, so the three files are byte-identical across worker
topologies and across kill-and-resume executions — the property the
``sweep-smoke`` CI job ``cmp``-gates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.faults.search.backend import DispatchProbeBackend, Probe, ProbeOutcome
from repro.faults.search.curves import (
    CurvePoint,
    curve_point,
    render_sweep_report,
    severity_label,
    sort_points,
    validate_severities,
    write_coverage_curve,
    write_failure_mode_curve,
)
from repro.faults.spec import FaultSpec, ensure_unique_names
from repro.jsonl import write_text_atomic

#: Directory (under the sweep/bisect output root) holding probe dispatches.
PROBES_DIRNAME = "probes"
CURVES_DIRNAME = "curves"
COVERAGE_CURVE_FILENAME = "coverage.jsonl"
FAILURE_MODE_CURVE_FILENAME = "failure-modes.jsonl"
SWEEP_REPORT_FILENAME = "sweep.md"


@dataclass(frozen=True)
class SweepResult:
    """A completed sweep: curve points plus where they were persisted."""

    points: tuple[CurvePoint, ...]
    coverage_path: Path
    failure_modes_path: Path
    report_path: Path
    report: str


def sweep_probes(
    suite: Any, specs: Sequence[FaultSpec], severities: Sequence[float]
) -> list[Probe]:
    """The sweep's probe grid: every spec at every ladder rung, full suite.

    Severity variants keep the base spec's *name* (the curve key) — only
    the severity field is replaced, so per-run RNG streams differ by spec
    hash while curves stay keyed per fault.
    """
    ensure_unique_names(specs)
    scenario_ids = tuple(scenario.scenario_id for scenario in suite.scenarios)
    return [
        Probe(spec=replace(spec, severity=severity), scenario_ids=scenario_ids)
        for spec in specs
        for severity in severities
    ]


def run_sweep(
    backend: DispatchProbeBackend,
    specs: Sequence[FaultSpec],
    severities: Sequence[float],
    *,
    out_dir: str | Path,
    meta: Mapping[str, Any] | None = None,
) -> SweepResult:
    """Evaluate the sweep grid through ``backend`` and persist the curves."""
    if not specs:
        raise ValueError("a sweep needs at least one fault spec")
    ladder = validate_severities(severities)
    out_dir = Path(out_dir)
    probes = sweep_probes(backend.suite, specs, ladder)
    outcomes: list[ProbeOutcome] = backend.evaluate(probes)
    points = sort_points(
        curve_point(outcome.probe.spec, outcome.records) for outcome in outcomes
    )

    header_meta: dict[str, Any] = {
        "severities": [severity_label(value) for value in ladder],
        "specs": sorted(spec.name for spec in specs),
        **backend.describe(),
        **(meta or {}),
    }
    curves_dir = out_dir / CURVES_DIRNAME
    coverage_path = write_coverage_curve(
        curves_dir / COVERAGE_CURVE_FILENAME, points, meta=header_meta
    )
    failure_modes_path = write_failure_mode_curve(
        curves_dir / FAILURE_MODE_CURVE_FILENAME, points, meta=header_meta
    )
    report_meta = {
        **{k: v for k, v in header_meta.items() if k not in ("severities", "specs")},
        "severities": ", ".join(severity_label(value) for value in ladder),
        "specs": ", ".join(sorted(spec.name for spec in specs)),
    }
    report = render_sweep_report(points, meta=report_meta)
    report_path = write_text_atomic(out_dir / SWEEP_REPORT_FILENAME, report)
    return SweepResult(
        points=tuple(points),
        coverage_path=coverage_path,
        failure_modes_path=failure_modes_path,
        report_path=report_path,
        report=report,
    )
