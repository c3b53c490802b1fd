"""Performance regression gate over ``BENCH_results.json`` meters.

The perf-smoke CI tier runs a small fixed-seed benchmark (see
``benchmarks/test_campaign_throughput.py``), which writes its meters into
``BENCH_results.json``.  This module compares selected meters against
committed floors and fails the build when throughput regresses below the
tolerance band — the cheap tripwire that keeps the vectorized mission loop
from silently decaying back towards its pre-optimisation speed.

Baseline format (``baselines/perf-smoke/throughput.json``)::

    {
      "schema": 1,
      "tolerance": 0.2,
      "meters": {
        "campaign_throughput/campaign_serial/runs_per_s": 0.3
      }
    }

Meter keys are ``<suite>/<bench>/<stat>`` paths into the results file; the
floor value is the *committed* minimum.  A measurement fails the gate when it
drops below ``floor * (1 - tolerance)``; a missing meter always fails, so
renaming a bench forces a deliberate re-baseline.  Floors are chosen with
generous headroom below locally measured numbers (see ``baseline``) because
CI machines are slower and noisier than developer machines — the gate exists
to catch order-of-magnitude regressions, not percent-level jitter.

Usage::

    python -m repro.bench.perfgate check \
        --results BENCH_results.json \
        --baseline baselines/perf-smoke/throughput.json

    python -m repro.bench.perfgate baseline \
        --results BENCH_results.json \
        --baseline baselines/perf-smoke/throughput.json --headroom 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.jsonl import write_text_atomic

BASELINE_SCHEMA = 1
#: Fraction below the committed floor a meter may fall before failing.
DEFAULT_TOLERANCE = 0.2
#: ``baseline`` writes ``measured * headroom`` as the new floor by default.
DEFAULT_HEADROOM = 0.5


@dataclass(frozen=True)
class MeterCheck:
    """Outcome of one meter against its committed floor."""

    key: str
    floor: float
    measured: float | None
    threshold: float

    @property
    def passed(self) -> bool:
        return self.measured is not None and self.measured >= self.threshold

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        if self.measured is None:
            return f"[{status}] {self.key}: meter missing from results (floor {self.floor:g})"
        return (
            f"[{status}] {self.key}: measured {self.measured:g} "
            f"vs floor {self.floor:g} (threshold {self.threshold:g})"
        )


def load_results_meters(path: Path) -> dict[str, float]:
    """Flatten a schema-2 ``BENCH_results.json`` into meter-key -> value."""
    data = json.loads(path.read_text(encoding="utf-8"))
    meters: dict[str, float] = {}
    suites = data.get("suites", {})
    if not isinstance(suites, dict):
        return meters
    for suite, entries in suites.items():
        if not isinstance(entries, list):
            continue
        for entry in entries:
            if not isinstance(entry, dict) or "name" not in entry:
                continue
            name = entry["name"]
            for stat, value in entry.items():
                if stat == "name" or not isinstance(value, (int, float)):
                    continue
                meters[f"{suite}/{name}/{stat}"] = float(value)
    return meters


def load_baseline(path: Path) -> tuple[dict[str, float], float]:
    """The committed floors plus the tolerance fraction."""
    data = json.loads(path.read_text(encoding="utf-8"))
    schema = data.get("schema")
    if schema != BASELINE_SCHEMA:
        raise ValueError(f"unsupported perf baseline schema {schema!r} in {path}")
    floors = {
        str(key): float(value) for key, value in data.get("meters", {}).items()
    }
    if not floors:
        raise ValueError(f"perf baseline {path} declares no meters")
    tolerance = float(data.get("tolerance", DEFAULT_TOLERANCE))
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    return floors, tolerance


def check_meters(
    measured: dict[str, float], floors: dict[str, float], tolerance: float
) -> list[MeterCheck]:
    return [
        MeterCheck(
            key=key,
            floor=floor,
            measured=measured.get(key),
            threshold=floor * (1.0 - tolerance),
        )
        for key, floor in sorted(floors.items())
    ]


def render_report(checks: list[MeterCheck], tolerance: float) -> str:
    lines = [
        "# Perf gate",
        "",
        f"- meters: {len(checks)}, tolerance: {tolerance:.0%} below committed floor",
        "",
    ]
    lines.extend(f"- {check.describe()}" for check in checks)
    failed = [check for check in checks if not check.passed]
    lines.append("")
    lines.append(
        "All meters within tolerance."
        if not failed
        else f"{len(failed)} meter(s) regressed beyond tolerance."
    )
    return "\n".join(lines) + "\n"


def render_trace_attribution(baseline_dir: str, current_dir: str) -> str:
    """Phase-level attribution for a failed gate, from two trace dirs.

    Lazy-imports the obs comparison engine so the gate itself keeps its
    tiny import footprint on the happy path.  Attribution is best-effort:
    unusable trace directories degrade to a note, never to a crash — the
    gate's own verdict already failed the build.
    """
    from repro.obs.compare import compare_phases, render_compare
    from repro.obs.report import collect_summaries

    try:
        baseline = collect_summaries(baseline_dir)
        current = collect_summaries(current_dir)
    except (FileNotFoundError, ValueError) as error:
        return f"(phase attribution unavailable: {error})\n"
    if not baseline or not current:
        return "(phase attribution unavailable: a trace directory has no summaries)\n"
    comparisons = compare_phases(baseline, current)
    body = render_compare(comparisons)
    return "## Phase attribution (flight traces)\n\n" + body


def _cmd_check(args: argparse.Namespace) -> int:
    floors, tolerance = load_baseline(Path(args.baseline))
    if args.tolerance is not None:
        tolerance = args.tolerance
    measured = load_results_meters(Path(args.results))
    checks = check_meters(measured, floors, tolerance)
    report = render_report(checks, tolerance)
    failed = not all(check.passed for check in checks)
    if failed and args.trace_baseline and args.trace_current:
        # A tripped floor says "slower"; the traces say *which phase*.
        report += "\n" + render_trace_attribution(
            args.trace_baseline, args.trace_current
        )
    if args.report:
        write_text_atomic(args.report, report)
    sys.stdout.write(report)
    return 1 if failed else 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    """Re-baseline: refresh every committed floor from the current results."""
    path = Path(args.baseline)
    floors, tolerance = load_baseline(path)
    measured = load_results_meters(Path(args.results))
    missing = sorted(key for key in floors if key not in measured)
    if missing:
        sys.stderr.write(
            "cannot re-baseline, meters missing from results: "
            + ", ".join(missing)
            + "\n"
        )
        return 1
    payload = {
        "schema": BASELINE_SCHEMA,
        "tolerance": tolerance,
        "meters": {
            key: round(measured[key] * args.headroom, 6) for key in sorted(floors)
        },
    }
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(floors)} floor(s) to {path}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perfgate",
        description="throughput regression gate over BENCH_results.json",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="fail when any meter regresses")
    check.add_argument("--results", required=True, help="BENCH_results.json path")
    check.add_argument("--baseline", required=True, help="committed floors JSON")
    check.add_argument(
        "--tolerance", type=float, default=None,
        help="override the baseline's tolerance fraction",
    )
    check.add_argument("--report", default=None, help="write the report here too")
    check.add_argument(
        "--trace-baseline", default=None,
        help="baseline flight-trace dir; with --trace-current, a failed gate "
        "appends per-phase regression attribution (python -m repro.obs compare)",
    )
    check.add_argument(
        "--trace-current", default=None,
        help="current flight-trace dir for phase attribution on failure",
    )
    check.set_defaults(func=_cmd_check)

    baseline = sub.add_parser(
        "baseline", help="refresh the committed floors from current results"
    )
    baseline.add_argument("--results", required=True)
    baseline.add_argument("--baseline", required=True)
    baseline.add_argument(
        "--headroom", type=float, default=DEFAULT_HEADROOM,
        help="floor = measured * headroom (default %(default)s)",
    )
    baseline.set_defaults(func=_cmd_baseline)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
