"""Severity-sweep curves: byte-stable JSONL and markdown renderings.

A sweep evaluates each fault spec at every rung of a severity ladder; this
module turns the resulting per-probe record sets into *curves*:

* **coverage-vs-severity** — per ``(fault, severity)`` point, the standard
  coverage accounting (armed / activated / detected / absorbed / escaped)
  plus a Wilson 95% interval on the coverage proportion, so sparse smoke
  sweeps state their uncertainty instead of overclaiming;
* **failure-modes-vs-severity** — how the five-way classification of
  activated injections shifts as severity rises (the paper's Fig. 5
  analogue for injected faults).

Both serializations are canonical (points sorted by ``(fault, severity)``,
``json.dumps(sort_keys=True)`` with fixed separators), so curves computed
from any execution order — serial, multi-worker, resumed after a kill —
are byte-identical, which is what lets CI ``cmp`` them against committed
baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.stats import DEFAULT_CONFIDENCE, wilson_interval
from repro.bench.tables import format_markdown_table, format_percent
from repro.core.metrics import RunRecord
from repro.faults.classifier import FAILURE_MODE_ORDER
from repro.faults.coverage import FaultCoverage, accumulate_coverage
from repro.faults.spec import FaultSpec
from repro.jsonl import read_jsonl_frame, write_jsonl_frame

#: Schema version stamped into every search JSONL header.
SEARCH_SCHEMA_VERSION = 1

#: ``kind`` of curve files (the header's ``curve`` field says which curve).
CURVE_KIND = "sweep-curve"

COVERAGE_CURVE = "coverage-vs-severity"
FAILURE_MODE_CURVE = "failure-modes-vs-severity"


def severity_ladder(points: int) -> tuple[float, ...]:
    """``points`` evenly spaced severities covering ``[0.0, 1.0]``.

    Endpoint-inclusive so ladder extremes coincide with the bisection
    driver's bracket endpoints, and dyadic for the common point counts
    (3 -> 0, 0.5, 1; 5 -> quarters), which keeps float labels short.
    """
    if points < 2:
        raise ValueError(f"a severity ladder needs at least 2 points, got {points}")
    return tuple(index / (points - 1) for index in range(points))


def parse_severities(text: str) -> tuple[float, ...]:
    """Parse a ``--severities`` CLI value (comma-separated floats)."""
    try:
        values = tuple(float(token) for token in text.split(",") if token.strip())
    except ValueError:
        raise ValueError(f"invalid severity list {text!r}") from None
    return validate_severities(values)


def validate_severities(values: Iterable[float]) -> tuple[float, ...]:
    """Sort, deduplicate and range-check a severity ladder."""
    ladder = tuple(sorted(set(float(value) for value in values)))
    if not ladder:
        raise ValueError("a severity ladder cannot be empty")
    for value in ladder:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"severity {value:g} outside [0, 1]")
    return ladder


def severity_label(severity: float) -> str:
    """Compact, stable display label for a severity value (``0.25``, ``1``)."""
    return f"{severity:g}"


@dataclass(frozen=True)
class CurvePoint:
    """One ``(fault, severity)`` curve point: the probe's coverage counters."""

    severity: float
    #: The probed spec's counters in the coverage report over the probe's
    #: records (runs, armed / activated / detected / absorbed / escaped,
    #: and the failure-mode histogram of activated runs).
    counters: FaultCoverage

    def wilson(self, confidence: float = DEFAULT_CONFIDENCE) -> tuple[float, float]:
        """Wilson interval on the coverage proportion (``(0, 1)`` if no data)."""
        return wilson_interval(self.counters.covered, self.counters.activated, confidence)

    def coverage_dict(self) -> dict[str, Any]:
        """The coverage-curve JSONL row."""
        counters = self.counters
        low, high = self.wilson()
        no_data = counters.activated == 0
        return {
            "fault": counters.name,
            "target": counters.target,
            "mode": counters.mode,
            "severity": self.severity,
            "runs": counters.runs,
            "armed": counters.armed,
            "activated": counters.activated,
            "detected": counters.detected,
            "absorbed": counters.absorbed,
            "escaped": counters.escaped,
            "coverage": None if no_data else counters.coverage,
            "coverage_low": None if no_data else low,
            "coverage_high": None if no_data else high,
        }

    def failure_mode_dict(self) -> dict[str, Any]:
        """The failure-mode-curve JSONL row."""
        return {
            "fault": self.counters.name,
            "severity": self.severity,
            "activated": self.counters.activated,
            "modes": {
                mode: self.counters.failure_modes.get(mode, 0) for mode in FAILURE_MODE_ORDER
            },
        }


def curve_point(spec: FaultSpec, records: Iterable[RunRecord]) -> CurvePoint:
    """Fold one probe's merged records into its curve point.

    ``spec`` is the probe's (severity-pinned) fault spec; the records are the
    probe campaign's merged output.  The point holds the coverage report's
    own counter for the spec, so it agrees with ``python -m repro.faults
    coverage`` over the same records.
    """
    counters = accumulate_coverage(records).faults.get(spec.name) or FaultCoverage(
        name=spec.name, target=spec.target, mode=spec.mode
    )
    return CurvePoint(severity=spec.severity, counters=counters)


def sort_points(points: Iterable[CurvePoint]) -> list[CurvePoint]:
    return sorted(points, key=lambda point: (point.counters.name, point.severity))


# ---------------------------------------------------------------------- #
# persistence
# ---------------------------------------------------------------------- #
def _write_curve(
    path: str | Path,
    curve: str,
    rows: Sequence[dict[str, Any]],
    meta: Mapping[str, Any] | None,
) -> Path:
    header: dict[str, Any] = {
        "kind": CURVE_KIND,
        "schema": SEARCH_SCHEMA_VERSION,
        "curve": curve,
        "points": len(rows),
        **(meta or {}),
    }
    return write_jsonl_frame(path, header, rows)


def write_coverage_curve(
    path: str | Path,
    points: Iterable[CurvePoint],
    *,
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Write the coverage-vs-severity curve as framed, byte-stable JSONL."""
    rows = [point.coverage_dict() for point in sort_points(points)]
    return _write_curve(path, COVERAGE_CURVE, rows, meta)


def write_failure_mode_curve(
    path: str | Path,
    points: Iterable[CurvePoint],
    *,
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Write the failure-modes-vs-severity curve as framed JSONL."""
    rows = [point.failure_mode_dict() for point in sort_points(points)]
    return _write_curve(path, FAILURE_MODE_CURVE, rows, meta)


def read_curve(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load a curve file; returns ``(header, rows)``."""
    header, payload = read_jsonl_frame(path, CURVE_KIND, SEARCH_SCHEMA_VERSION)
    return header, [json.loads(line) for line in payload]


# ---------------------------------------------------------------------- #
# markdown
# ---------------------------------------------------------------------- #
def _meta_lines(meta: Mapping[str, Any] | None) -> list[str]:
    if not meta:
        return []
    lines = [f"- {key}: {meta[key]}" for key in sorted(meta)]
    lines.append("")
    return lines


def render_sweep_report(
    points: Iterable[CurvePoint],
    *,
    meta: Mapping[str, Any] | None = None,
    title: str = "Fault-space severity sweep",
) -> str:
    """The deterministic sweep report (the CI-baselined markdown)."""
    ordered = sort_points(points)
    lines: list[str] = [f"# {title}", ""]
    lines.extend(_meta_lines(meta))

    lines.append("## Coverage vs severity")
    lines.append("")
    headers = [
        "Fault", "Target", "Mode", "Severity", "Runs", "Armed", "Activated",
        "Detected", "Absorbed", "Escaped", "Coverage", "Wilson low", "Wilson high",
    ]
    rows = []
    for point in ordered:
        counters = point.counters
        low, high = point.wilson()
        no_data = counters.activated == 0
        rows.append(
            [
                counters.name, counters.target, counters.mode, severity_label(point.severity),
                counters.runs, counters.armed, counters.activated, counters.detected,
                counters.absorbed, counters.escaped, format_percent(counters.coverage),
                "n/a" if no_data else format_percent(low),
                "n/a" if no_data else format_percent(high),
            ]
        )
    lines.append(format_markdown_table(headers, rows))
    lines.append("")

    lines.append("## Failure modes vs severity (activated injections)")
    lines.append("")
    headers = ["Fault", "Severity", "Activated"] + list(FAILURE_MODE_ORDER)
    rows = [
        [point.counters.name, severity_label(point.severity), point.counters.activated]
        + [point.counters.failure_modes.get(mode, 0) for mode in FAILURE_MODE_ORDER]
        for point in ordered
    ]
    lines.append(format_markdown_table(headers, rows))
    lines.append("")
    return "\n".join(lines)
