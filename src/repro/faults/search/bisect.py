"""Severity bisection: the minimal severity that flips a run's failure mode.

For each *cell* — one ``(fault spec, scenario, system, repetition)`` — the
driver evaluates the severity bracket endpoints (0 and 1 by default).  When
the five-way failure-mode classification differs between the endpoints, it
bisects: probe the midpoint, keep the half whose boundary still separates
the low-endpoint mode from a different mode, repeat until the bracket is no
wider than ``resolution``.

**Critical-severity semantics.**  ``critical`` is the bracket's upper edge
when bisection terminates: the smallest probed severity (to within
``resolution``) whose classification differs from the low-endpoint mode.
Below ``critical - resolution`` the run classifies as ``lo_mode``; at
``critical`` it classifies as ``critical_mode``.  Midpoints may classify as
a *third* mode (e.g. ``nominal`` → ``safe-failsafe`` → ``crash``); the
bracket then tracks the first departure from ``lo_mode``, so ``critical``
is the onset of *any* behavioural change, and ``critical_mode`` names what
it changed into.  Cells whose endpoints agree report ``critical = None``
(no flip to find).

The search is *batch-synchronous*: each round gathers every unresolved
cell's midpoint probe into one backend batch, grouped by ``(spec,
severity)``.  Midpoints are dyadic (0.5, 0.25, 0.75, ...), so cells
resolve through a shared, heavily-memoized set of probe points, and the
whole procedure is a deterministic function of the merged records — which
makes re-runs (and resumed runs) byte-identical and the result invariant
to worker count and probe evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.bench.tables import format_markdown_table
from repro.faults.classifier import failure_mode_label
from repro.faults.search.backend import Probe, ProbeOutcome
from repro.faults.search.curves import SEARCH_SCHEMA_VERSION, severity_label
from repro.faults.spec import FaultSpec, ensure_unique_names
from repro.jsonl import read_jsonl_frame, write_jsonl_frame

#: ``kind`` of the persisted bisection JSONL.
BISECTION_KIND = "severity-bisection"
BISECTION_FILENAME = "bisect.jsonl"
BISECTION_REPORT_FILENAME = "bisect.md"

#: Default bracket width at which bisection stops (4 rounds from [0, 1]).
DEFAULT_RESOLUTION = 0.0625

CellKey = tuple[str, str, str, int]


@dataclass
class _CellState:
    """One cell's live bracket while the search runs."""

    fault: str
    scenario_id: str
    system: str
    repetition: int
    lo: float
    hi: float
    lo_mode: str
    hi_mode: str
    probes: int = 2  # both endpoints

    @property
    def flipped(self) -> bool:
        return self.lo_mode != self.hi_mode

    def unresolved(self, resolution: float) -> bool:
        return self.flipped and (self.hi - self.lo) > resolution


@dataclass(frozen=True)
class BisectionResult:
    """The resolved critical-severity answer for one cell."""

    fault: str
    target: str
    mode: str
    scenario_id: str
    system: str
    repetition: int
    lo: float
    hi: float
    lo_mode: str
    hi_mode: str
    critical: float | None
    critical_mode: str | None
    probes: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "fault": self.fault,
            "target": self.target,
            "mode": self.mode,
            "scenario_id": self.scenario_id,
            "system": self.system,
            "repetition": self.repetition,
            "lo": self.lo,
            "hi": self.hi,
            "lo_mode": self.lo_mode,
            "hi_mode": self.hi_mode,
            "critical": self.critical,
            "critical_mode": self.critical_mode,
            "probes": self.probes,
        }


def _mode_lookup(outcomes: Iterable[ProbeOutcome]) -> dict[tuple, str]:
    """``(fault, severity, scenario, system, repetition) -> failure mode``."""
    modes: dict[tuple, str] = {}
    for outcome in outcomes:
        spec = outcome.probe.spec
        for record in outcome.records:
            key = (
                spec.name,
                spec.severity,
                record.scenario_id,
                record.system_name,
                record.repetition,
            )
            modes[key] = failure_mode_label(record)
    return modes


def bisect_severity(
    backend: Any,
    specs: Sequence[FaultSpec],
    *,
    resolution: float = DEFAULT_RESOLUTION,
    lo: float = 0.0,
    hi: float = 1.0,
    progress: Callable[[str], None] | None = None,
) -> list[BisectionResult]:
    """Bisect every ``(spec, scenario, system, repetition)`` cell's severity.

    Returns results sorted by ``(fault, scenario, system, repetition)``;
    see the module docstring for the critical-severity semantics.
    """
    if not specs:
        raise ValueError("bisection needs at least one fault spec")
    ensure_unique_names(specs)
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"invalid severity bracket [{lo:g}, {hi:g}]")
    if resolution <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution:g}")

    spec_by_name = {spec.name: spec for spec in specs}
    suite_order = {
        scenario.scenario_id: index
        for index, scenario in enumerate(backend.suite.scenarios)
    }
    all_ids = tuple(scenario.scenario_id for scenario in backend.suite.scenarios)

    # Round 0: both bracket endpoints for every spec over the full suite.
    endpoint_probes = [
        Probe(spec=replace(spec, severity=value), scenario_ids=all_ids)
        for spec in specs
        for value in (lo, hi)
    ]
    modes = _mode_lookup(backend.evaluate(endpoint_probes))

    cells: dict[CellKey, _CellState] = {}
    for (fault, severity, scenario_id, system, repetition), label in sorted(
        modes.items()
    ):
        if severity != lo:
            continue
        hi_label = modes[(fault, hi, scenario_id, system, repetition)]
        cells[(fault, scenario_id, system, repetition)] = _CellState(
            fault=fault,
            scenario_id=scenario_id,
            system=system,
            repetition=repetition,
            lo=lo,
            hi=hi,
            lo_mode=label,
            hi_mode=hi_label,
        )

    while True:
        active = [cell for cell in cells.values() if cell.unresolved(resolution)]
        if not active:
            break
        # Group this round's midpoints into one probe per (spec, severity):
        # dyadic midpoints coincide across cells, so a handful of probe
        # directories serves the whole population.
        groups: dict[tuple[str, float], set[str]] = {}
        for cell in active:
            mid = (cell.lo + cell.hi) / 2.0
            groups.setdefault((cell.fault, mid), set()).add(cell.scenario_id)
        probes = [
            Probe(
                spec=replace(spec_by_name[fault], severity=mid),
                scenario_ids=tuple(
                    sorted(scenario_ids, key=lambda sid: suite_order[sid])
                ),
            )
            for (fault, mid), scenario_ids in sorted(groups.items())
        ]
        if progress is not None:
            unresolved = len(active)
            progress(
                f"bisection round: {len(probes)} probe(s) for {unresolved} "
                f"unresolved cell(s)"
            )
        modes.update(_mode_lookup(backend.evaluate(probes)))
        for cell in active:
            mid = (cell.lo + cell.hi) / 2.0
            label = modes[
                (cell.fault, mid, cell.scenario_id, cell.system, cell.repetition)
            ]
            cell.probes += 1
            if label == cell.lo_mode:
                cell.lo = mid
            else:
                cell.hi = mid
                cell.hi_mode = label

    results = []
    for cell in cells.values():
        spec = spec_by_name[cell.fault]
        results.append(
            BisectionResult(
                fault=cell.fault,
                target=spec.target,
                mode=spec.mode,
                scenario_id=cell.scenario_id,
                system=cell.system,
                repetition=cell.repetition,
                lo=cell.lo,
                hi=cell.hi,
                lo_mode=cell.lo_mode,
                hi_mode=cell.hi_mode,
                critical=cell.hi if cell.flipped else None,
                critical_mode=cell.hi_mode if cell.flipped else None,
                probes=cell.probes,
            )
        )
    return sorted(
        results,
        key=lambda r: (r.fault, r.scenario_id, r.system, r.repetition),
    )


# ---------------------------------------------------------------------- #
# persistence and rendering
# ---------------------------------------------------------------------- #
def write_bisection(
    path: str | Path,
    results: Sequence[BisectionResult],
    *,
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Persist bisection results as framed, byte-stable JSONL."""
    header: dict[str, Any] = {
        "kind": BISECTION_KIND,
        "schema": SEARCH_SCHEMA_VERSION,
        "cells": len(results),
        **(meta or {}),
    }
    return write_jsonl_frame(path, header, [r.to_dict() for r in results])


def read_bisection(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    header, payload = read_jsonl_frame(path, BISECTION_KIND, SEARCH_SCHEMA_VERSION)
    return header, [json.loads(line) for line in payload]


def render_bisection_report(
    results: Sequence[BisectionResult],
    *,
    meta: Mapping[str, Any] | None = None,
    title: str = "Critical-severity bisection",
) -> str:
    """The deterministic bisection report (the CI-baselined markdown)."""
    lines: list[str] = [f"# {title}", ""]
    if meta:
        lines.extend(f"- {key}: {meta[key]}" for key in sorted(meta))
        lines.append("")

    lines.append("## Critical severity per cell")
    lines.append("")
    headers = [
        "Fault", "Scenario", "System", "Rep", "Mode@lo", "Mode@hi",
        "Critical", "Bracket", "Probes",
    ]
    rows = []
    for result in results:
        rows.append(
            [
                result.fault,
                result.scenario_id,
                result.system,
                result.repetition,
                result.lo_mode,
                result.hi_mode,
                "none" if result.critical is None else severity_label(result.critical),
                f"[{severity_label(result.lo)}, {severity_label(result.hi)}]",
                result.probes,
            ]
        )
    lines.append(format_markdown_table(headers, rows))
    lines.append("")

    lines.append("## Minimal critical severity per fault")
    lines.append("")
    by_fault: dict[str, list[BisectionResult]] = {}
    for result in results:
        by_fault.setdefault(result.fault, []).append(result)
    rows = []
    for fault in sorted(by_fault):
        flipped = [r for r in by_fault[fault] if r.critical is not None]
        minimal = min((r.critical for r in flipped), default=None)
        rows.append(
            [
                fault,
                len(by_fault[fault]),
                len(flipped),
                "none" if minimal is None else severity_label(minimal),
            ]
        )
    lines.append(
        format_markdown_table(["Fault", "Cells", "Flipped", "Min critical"], rows)
    )
    lines.append("")
    return "\n".join(lines)
