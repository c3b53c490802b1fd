"""Aggregate flight-trace files into a per-phase time-breakdown report.

``python -m repro.obs report <dir>`` walks a directory for
``*.trace.jsonl`` files (a campaign's ``--trace`` dir, or a whole dispatch
tree), aggregates every run summary and renders a markdown report through
:mod:`repro.bench.tables`.

The default report is **deterministic**: it shows span counts, frame and
fault counters and the platform model's *nominal* module seconds — all pure
functions of the campaign definition — so the same campaign produces the
same bytes on any machine, in any execution mode, and the report can be
committed as a CI baseline (``baselines/obs-smoke/phase-report.md``).
``--wall`` adds the measured wall-clock columns for local profiling; those
are machine-dependent by nature and are never part of the baseline.

Aggregation is order-independent by construction: summaries are sorted by
``(system, scenario_id, repetition)`` before any float is summed, so the
append interleavings of parallel or dispatched workers cannot change a bit
of the output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.bench.tables import format_markdown_table, format_percent
from repro.jsonl import write_or_print
from repro.obs.trace import PHASES, iter_trace_summaries


def trace_files(directory: str | Path) -> list[Path]:
    """Every ``*.trace.jsonl`` under ``directory``, sorted.

    Distinguishing "no trace files at all" (a wrong path — usage error)
    from "files exist but hold only headers" (a campaign that wrote no
    summaries — an empty result) is what lets the CLI exit 2 for the
    former and 1 for the latter.
    """
    directory = Path(directory)
    if not directory.exists():
        raise FileNotFoundError(f"no such trace directory: {directory}")
    return sorted(directory.rglob("*.trace.jsonl"))


def collect_summaries(directory: str | Path) -> list[dict[str, Any]]:
    """Every run summary under ``directory``, in deterministic order."""
    summaries: list[dict[str, Any]] = []
    for path in trace_files(directory):
        summaries.extend(iter_trace_summaries(path))
    summaries.sort(
        key=lambda s: (
            str(s.get("system", "")),
            str(s.get("scenario_id", "")),
            int(s.get("repetition", 0)),
        )
    )
    return summaries


def _aggregate(summaries: Sequence[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per-system aggregates: span counts/walls, nominal seconds, counters."""
    systems: dict[str, dict[str, Any]] = {}
    for summary in summaries:
        system = str(summary.get("system", ""))
        agg = systems.setdefault(
            system,
            {"runs": 0, "spans": {}, "wall": {}, "nominal": {}, "counters": {}},
        )
        agg["runs"] += 1
        for phase, span in summary.get("spans", {}).items():
            agg["spans"][phase] = agg["spans"].get(phase, 0) + int(span.get("count", 0))
            agg["wall"][phase] = agg["wall"].get(phase, 0.0) + float(
                span.get("wall_s", 0.0)
            )
        for phase, seconds in summary.get("nominal_s", {}).items():
            agg["nominal"][phase] = agg["nominal"].get(phase, 0.0) + float(seconds)
        for name, value in summary.get("counters", {}).items():
            agg["counters"][name] = agg["counters"].get(name, 0) + int(value)
    return systems


def _phase_order(agg: dict[str, Any]) -> list[str]:
    known = [
        phase
        for phase in PHASES
        if phase in agg["spans"] or agg["nominal"].get(phase, 0.0) > 0.0
    ]
    extra = sorted(set(agg["spans"]) - set(known))
    return known + extra


def _seconds(value: float) -> str:
    return f"{value:.6f}"


def render_phase_report(
    summaries: Sequence[dict[str, Any]], *, wall: bool = False
) -> str:
    """The markdown phase-breakdown report over ``summaries``."""
    systems = _aggregate(summaries)
    lines = ["# Flight-trace phase report", ""]
    lines.append(
        f"{len(summaries)} traced run(s) across {len(systems)} system(s)."
    )
    lines.append(
        "Nominal seconds are the execution-platform model's deterministic "
        "module costs; span counts are deterministic too."
        + (" Wall seconds are measured on this machine." if wall else "")
    )
    lines.append("")

    headers = ["System", "Phase", "Spans", "Nominal s", "Nominal share"]
    if wall:
        headers += ["Wall s", "Wall share"]
    rows: list[list[object]] = []
    for system in sorted(systems):
        agg = systems[system]
        nominal_total = sum(agg["nominal"].values())
        wall_total = sum(agg["wall"].values())
        for phase in _phase_order(agg):
            nominal = agg["nominal"].get(phase)
            row: list[object] = [
                system,
                phase,
                agg["spans"].get(phase, 0),
                _seconds(nominal) if nominal is not None else "-",
                format_percent(nominal / nominal_total)
                if nominal is not None and nominal_total
                else "-",
            ]
            if wall:
                seconds = agg["wall"].get(phase, 0.0)
                row += [
                    _seconds(seconds),
                    format_percent(seconds / wall_total) if wall_total else "-",
                ]
            rows.append(row)
    lines.append(format_markdown_table(headers, rows))
    lines.append("")

    lines.append("## Frame and fault counters")
    lines.append("")
    counter_rows: list[list[object]] = []
    for system in sorted(systems):
        counters = systems[system]["counters"]
        for name in sorted(counters):
            counter_rows.append([system, name, counters[name]])
    lines.append(format_markdown_table(["System", "Counter", "Total"], counter_rows))
    lines.append("")
    return "\n".join(lines)


def render_shard_report(
    summaries: Sequence[dict[str, Any]], *, wall: bool = False
) -> str:
    """Per-shard breakdown keyed on trace correlation IDs.

    Dispatch workers stamp every summary with ``corr.job`` (plan
    fingerprint prefix) and ``corr.shard``; traces written outside a
    dispatch tree carry no correlation and group under ``-``.
    """
    groups: dict[tuple[str, str, str], dict[str, Any]] = {}
    for summary in summaries:
        corr = summary.get("corr") or {}
        key = (
            str(corr.get("shard", "-")),
            str(corr.get("job", "-")),
            str(summary.get("system", "")),
        )
        agg = groups.setdefault(key, {"runs": 0, "nominal": 0.0, "wall": 0.0})
        agg["runs"] += 1
        agg["nominal"] += sum(
            float(seconds) for seconds in summary.get("nominal_s", {}).values()
        )
        agg["wall"] += sum(
            float(span.get("wall_s", 0.0))
            for span in summary.get("spans", {}).values()
        )

    correlated = sum(1 for key in groups if key[0] != "-")
    lines = ["# Flight-trace shard report", ""]
    lines.append(
        f"{len(summaries)} traced run(s) across {len(groups)} "
        f"(shard, job, system) group(s); {correlated} group(s) carry "
        "dispatch correlation IDs."
    )
    lines.append("")
    headers = ["Shard", "Job", "System", "Runs", "Nominal s"]
    if wall:
        headers.append("Wall s")
    rows: list[list[object]] = []
    for shard, job, system in sorted(groups):
        agg = groups[(shard, job, system)]
        row: list[object] = [shard, job, system, agg["runs"], _seconds(agg["nominal"])]
        if wall:
            row.append(_seconds(agg["wall"]))
        rows.append(row)
    lines.append(format_markdown_table(headers, rows))
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Aggregate flight-trace files into phase-breakdown reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="render the per-phase time-breakdown markdown report"
    )
    report.add_argument("dir", help="directory holding *.trace.jsonl files")
    report.add_argument("--out", default=None, help="write the report here")
    report.add_argument(
        "--wall", action="store_true",
        help="include measured wall-clock columns (machine-dependent; the "
        "default report is deterministic and baseline-safe)",
    )
    report.add_argument(
        "--by-shard", action="store_true",
        help="group by dispatch correlation IDs (shard/job) instead of phase",
    )

    compare = sub.add_parser(
        "compare",
        help="statistically compare two trace directories per (system, phase); "
        "exits 1 when a phase regressed significantly",
    )
    compare.add_argument("baseline", help="baseline trace directory")
    compare.add_argument("current", help="current trace directory")
    compare.add_argument(
        "--metric", choices=("wall", "nominal"), default="wall",
        help="per-run seconds to compare (default: %(default)s)",
    )
    compare.add_argument(
        "--confidence", type=float, default=None,
        help="bootstrap CI confidence level (default: the analysis default)",
    )
    compare.add_argument(
        "--resamples", type=int, default=None,
        help="bootstrap resample count (default: the analysis default)",
    )
    compare.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the deterministic bootstrap (default: %(default)s)",
    )
    compare.add_argument("--out", default=None, help="write the comparison here")
    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        files = trace_files(args.dir)
        if not files:
            print(f"error: no *.trace.jsonl files under {args.dir}", file=sys.stderr)
            return 2
        summaries = collect_summaries(args.dir)
        if not summaries:
            # Header-only traces: the files are real but no run completed.
            print(f"no trace summaries under {args.dir}", file=sys.stderr)
            return 1
        if args.by_shard:
            rendered = render_shard_report(summaries, wall=args.wall)
        else:
            rendered = render_phase_report(summaries, wall=args.wall)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    write_or_print(rendered, args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.stats import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES
    from repro.obs.compare import compare_phases, render_compare

    confidence = args.confidence if args.confidence is not None else DEFAULT_CONFIDENCE
    resamples = args.resamples if args.resamples is not None else DEFAULT_RESAMPLES
    try:
        sides = {}
        for label, directory in (("baseline", args.baseline), ("current", args.current)):
            summaries = collect_summaries(directory)
            if not summaries:
                print(f"error: no trace summaries under {directory}", file=sys.stderr)
                return 2
            sides[label] = summaries
        comparisons = compare_phases(
            sides["baseline"], sides["current"],
            metric=args.metric, confidence=confidence,
            resamples=resamples, seed=args.seed,
        )
        rendered = render_compare(
            comparisons, metric=args.metric, confidence=confidence
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    write_or_print(rendered, args.out)
    return 1 if any(c.regressed for c in comparisons) else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_report(args)
