"""Render campaign results in the layout of the paper's tables."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.bench import paper_values
from repro.core.metrics import CampaignResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with padded columns."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_percent(value: float) -> str:
    """``0.5 -> "50.0%"``; NaN renders as ``n/a`` (no data, not zero).

    The one percent formatter for every byte-stable report (coverage,
    sweep curves): a single rounding rule keeps committed baselines from
    drifting when a renderer moves between modules.
    """
    return "n/a" if value != value else f"{100.0 * value:.1f}%"


def format_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """GitHub-flavoured markdown table (byte-stable: pure function of input).

    Cells are padded to a common column width so the source reads as cleanly
    as the render; literal pipes in cells are escaped.  Used by the analysis
    reports (:mod:`repro.analysis.report`) next to the plain-text benches.
    """
    def clean(cell: object) -> str:
        return str(cell).replace("|", "\\|")

    table = [[clean(cell) for cell in row] for row in rows]
    header_cells = [clean(header) for header in headers]
    for row in table:
        if len(row) != len(header_cells):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(header_cells)}: {row}"
            )
    widths = [
        max(len(column_cell) for column_cell in column)
        for column in zip(header_cells, *table)
    ]
    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(cell.ljust(w) for cell, w in zip(cells, widths)) + " |"

    lines = [line(header_cells), line(["-" * w for w in widths])]
    lines.extend(line(row) for row in table)
    return "\n".join(lines)


def render_outcome_rates(results: Mapping[str, CampaignResult]) -> str:
    """The CLI results table: per-system run counts and outcome rates.

    Shared by ``repro.scenarios run`` (every execution mode) and
    ``repro.dispatch merge``, so the columns cannot drift.
    """
    rows = [
        [
            name,
            len(result),
            f"{100.0 * result.success_rate:.1f}%",
            f"{100.0 * result.collision_failure_rate:.1f}%",
            f"{100.0 * result.poor_landing_failure_rate:.1f}%",
        ]
        for name, result in results.items()
    ]
    return format_table(["System", "Runs", "Success", "Collision", "Poor landing"], rows)


def render_landing_table(
    results: Mapping[str, CampaignResult],
    paper: Mapping[str, Mapping[str, float]] | None = None,
    title: str = "Table I: Experiment Results of SIL Testing",
) -> str:
    """Tables I / III: landing outcome rates per system, next to the paper's."""
    paper = paper if paper is not None else paper_values.TABLE_1_SIL
    headers = [
        "Landing System",
        "Successful Landing Rate",
        "Failure rate due to Collision",
        "Failure rate due to poor landing",
        "Paper (success/collision/poor)",
        "Runs",
    ]
    rows = []
    for name, result in results.items():
        reference = paper.get(name)
        reference_text = (
            f"{reference['success']:.2f}% / {reference['collision']:.2f}% / {reference['poor_landing']:.2f}%"
            if reference
            else "-"
        )
        rows.append(
            [
                name,
                f"{100 * result.success_rate:.2f}%",
                f"{100 * result.collision_failure_rate:.2f}%",
                f"{100 * result.poor_landing_failure_rate:.2f}%",
                reference_text,
                len(result),
            ]
        )
    return f"{title}\n{format_table(headers, rows)}"


def render_detection_table(
    results: Mapping[str, CampaignResult],
    title: str = "Table II: Marker Detection Results",
) -> str:
    """Table II: false-negative rate per system, next to the paper's."""
    headers = [
        "Marker Detection Results",
        "Implementation",
        "False Negative Rate (%)",
        "Paper FN (%)",
        "Marker-visible frames",
    ]
    rows = []
    for name, result in results.items():
        reference = paper_values.TABLE_2_DETECTION.get(name, {})
        implementation = "OpenCV" if name == "MLS-V1" else "TPH-YOLO"
        stats = result.detection_stats
        rows.append(
            [
                name,
                implementation,
                f"{100 * stats.false_negative_rate:.2f}",
                f"{reference.get('false_negative_rate', float('nan')):.2f}",
                stats.frames_with_visible_marker,
            ]
        )
    return f"{title}\n{format_table(headers, rows)}"


def render_resource_summary(
    result: CampaignResult,
    title: str = "Companion-computer utilisation",
) -> str:
    """The §V.B / Fig. 7 quantities: CPU, memory and GPU utilisation."""
    stats = result.resource_stats
    headers = ["Metric", "Reproduced", "Paper"]
    rows = [
        ["Mean CPU utilisation", f"{100 * stats.mean_cpu:.1f}%", "all 4 cores heavily utilised"],
        [
            "Mean memory use",
            f"{stats.mean_memory_mb / 1000:.2f} GB",
            f"~{paper_values.HIL_RESOURCES['memory_used_gb']:.1f} GB of "
            f"{paper_values.HIL_RESOURCES['memory_available_gb']:.1f} GB",
        ],
        ["Peak memory use", f"{stats.peak_memory_mb / 1000:.2f} GB", "-"],
        ["Mean GPU utilisation", f"{100 * stats.mean_gpu:.1f}%", "-"],
        ["Planning deadline misses", str(stats.deadline_misses), "collisions from late replans"],
    ]
    return f"{title}\n{format_table(headers, rows)}"


def render_landing_accuracy(
    sil_result: CampaignResult | None,
    field_result: CampaignResult | None,
    title: str = "Landing accuracy (distance from marker)",
) -> str:
    """§V.C: mean landing error, SIL/HIL vs real world."""
    headers = ["Setting", "Reproduced mean error", "Paper"]
    rows = []
    if sil_result is not None:
        rows.append(
            [
                "SIL / HIL",
                f"{sil_result.mean_landing_error:.2f} m",
                f"~{paper_values.LANDING_ACCURACY['sil_hil_mean_error_m']:.2f} m",
            ]
        )
    if field_result is not None:
        rows.append(
            [
                "Real world",
                f"{field_result.mean_landing_error:.2f} m",
                f"~{paper_values.LANDING_ACCURACY['real_world_mean_error_m']:.2f} m",
            ]
        )
    return f"{title}\n{format_table(headers, rows)}"
