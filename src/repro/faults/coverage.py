"""Fault-coverage accounting: did the system notice, absorb, or escape?

Coverage is computed per fault spec (by name) over the runs in which the
fault actually *activated*:

* **detected** — the run ended in a failsafe (``safe-failsafe``): the system
  noticed trouble and aborted safely;
* **absorbed** — the run still landed on the pad (``nominal`` /
  ``degraded-success``): the architecture tolerated the fault;
* **escaped** — the fault propagated to a ``crash`` or ``unsafe-landing``.

``coverage = (detected + absorbed) / activated`` — the fraction of injected
faults that were either detected or safely absorbed, the quantity the DSN
dependability analysis cares about.  Runs where a fault armed but never met
its activation window are excluded from the denominator (nothing was
injected), but reported so sweeps can see dead schedules.

Everything here streams: records are folded one at a time, so persisted
campaigns of any size work, and the rendered markdown is a pure function of
the accumulated counts (byte-stable for CI baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.bench.tables import format_markdown_table, format_percent
from repro.core.metrics import RunRecord
from repro.faults.classifier import (
    FAILURE_MODE_ORDER,
    FailureMode,
    failure_mode_label,
)

#: Failure modes counted as "the system noticed and failed safe".
DETECTED_MODES = frozenset({FailureMode.SAFE_FAILSAFE.value})
#: Failure modes counted as "the fault was tolerated".
ABSORBED_MODES = frozenset({FailureMode.NOMINAL.value, FailureMode.DEGRADED_SUCCESS.value})
#: Failure modes counted as "the fault escaped containment".
ESCAPED_MODES = frozenset({FailureMode.UNSAFE_LANDING.value, FailureMode.CRASH.value})


@dataclass
class FaultCoverage:
    """Streaming counters for one fault spec (keyed by its name)."""

    name: str
    target: str = ""
    mode: str = ""
    runs: int = 0
    armed: int = 0
    activated: int = 0
    detected: int = 0
    absorbed: int = 0
    escaped: int = 0
    failure_modes: dict[str, int] = field(
        default_factory=lambda: {mode: 0 for mode in FAILURE_MODE_ORDER}
    )

    @property
    def covered(self) -> int:
        return self.detected + self.absorbed

    @property
    def coverage(self) -> float:
        """Fraction of activated injections detected or safely absorbed."""
        return self.covered / self.activated if self.activated else float("nan")


@dataclass
class CoverageReport:
    """Campaign-wide fault-coverage accumulation."""

    faults: dict[str, FaultCoverage] = field(default_factory=dict)
    failure_modes: dict[str, int] = field(
        default_factory=lambda: {mode: 0 for mode in FAILURE_MODE_ORDER}
    )
    total_runs: int = 0
    fault_runs: int = 0

    def add(self, record: RunRecord) -> None:
        """Fold one run record into the counters."""
        self.total_runs += 1
        label = failure_mode_label(record)
        self.failure_modes[label] = self.failure_modes.get(label, 0) + 1
        if record.injected_faults:
            self.fault_runs += 1
        for entry in record.injected_faults:
            coverage = self._coverage_for(entry)
            coverage.runs += 1
            if entry.get("armed"):
                coverage.armed += 1
            if not entry.get("activated"):
                continue
            coverage.activated += 1
            coverage.failure_modes[label] = coverage.failure_modes.get(label, 0) + 1
            if label in DETECTED_MODES:
                coverage.detected += 1
            elif label in ABSORBED_MODES:
                coverage.absorbed += 1
            elif label in ESCAPED_MODES:
                coverage.escaped += 1

    def _coverage_for(self, entry: Mapping[str, Any]) -> FaultCoverage:
        name = str(entry.get("name", "(unnamed)"))
        coverage = self.faults.get(name)
        if coverage is None:
            coverage = self.faults[name] = FaultCoverage(
                name=name,
                target=str(entry.get("target", "")),
                mode=str(entry.get("mode", "")),
            )
        return coverage

    @property
    def overall_coverage(self) -> float:
        activated = sum(c.activated for c in self.faults.values())
        covered = sum(c.covered for c in self.faults.values())
        return covered / activated if activated else float("nan")


def accumulate_coverage(records: Iterable[RunRecord]) -> CoverageReport:
    """Fold a record stream into a :class:`CoverageReport`."""
    report = CoverageReport()
    for record in records:
        report.add(record)
    return report


def render_coverage_section(report: CoverageReport) -> str:
    """The fault-coverage markdown section (shared by CLI and analysis)."""
    lines: list[str] = []
    lines.append(
        f"- records: {report.total_runs} runs, {report.fault_runs} with "
        f"injected faults, {len(report.faults)} fault spec(s)"
    )
    lines.append(f"- overall fault coverage: {format_percent(report.overall_coverage)}")
    lines.append("")

    lines.append("### Coverage by fault")
    lines.append("")
    headers = [
        "Fault", "Target", "Mode", "Runs", "Armed", "Activated",
        "Detected", "Absorbed", "Escaped", "Coverage",
    ]
    rows = []
    for name in sorted(report.faults):
        coverage = report.faults[name]
        rows.append(
            [
                coverage.name, coverage.target, coverage.mode, coverage.runs,
                coverage.armed, coverage.activated, coverage.detected,
                coverage.absorbed, coverage.escaped, format_percent(coverage.coverage),
            ]
        )
    lines.append(format_markdown_table(headers, rows))
    lines.append("")

    lines.append("### Failure modes by fault")
    lines.append("")
    headers = ["Fault"] + list(FAILURE_MODE_ORDER)
    rows = [
        [name] + [report.faults[name].failure_modes.get(mode, 0) for mode in FAILURE_MODE_ORDER]
        for name in sorted(report.faults)
    ]
    lines.append(format_markdown_table(headers, rows))
    lines.append("")

    lines.append("### Failure-mode totals (all runs)")
    lines.append("")
    rows = [
        [
            mode,
            report.failure_modes.get(mode, 0),
            format_percent(report.failure_modes.get(mode, 0) / report.total_runs)
            if report.total_runs
            else "n/a",
        ]
        for mode in FAILURE_MODE_ORDER
    ]
    lines.append(format_markdown_table(["Mode", "Runs", "Share"], rows))
    return "\n".join(lines)


def render_coverage_report(
    report: CoverageReport, *, title: str = "Fault-injection coverage"
) -> str:
    """The standalone ``python -m repro.faults coverage`` markdown report."""
    return "\n".join([f"# {title}", "", render_coverage_section(report), ""])
