"""Fault-injection CLI: ``python -m repro.faults``.

Subcommands:

* ``list`` — the failure-mode taxonomy (targets, modes) and fault presets.
* ``describe`` — inspect a fault preset or fault-plan JSON file.
* ``coverage`` — render the fault-coverage report (per-fault detection /
  absorption accounting plus the failure-mode breakdown) from persisted
  campaign results; ``--gate`` turns it into a CI gate on the Wilson lower
  bound of overall coverage.
* ``sweep`` — evaluate a severity ladder per fault spec and emit
  coverage-vs-severity / failure-mode-vs-severity curves (byte-stable
  JSONL + markdown); probes drain through the dispatch queue.
* ``bisect`` — per (fault, scenario, system, repetition) cell, bisect
  severity to the threshold where the failure-mode classification flips.

A fault-injection campaign is flown like any other, by
``python -m repro.scenarios run --faults ...`` (serially, in parallel or
with ``--dispatch``); it prints the coverage report, and ``coverage``
renders it again from the persisted records.

Examples::

    python -m repro.faults list
    python -m repro.faults describe --faults sensor --ladder 5
    python -m repro.scenarios run --preset smoke --seed 7 --faults smoke \\
        --systems mls-v1 --out fault-results/
    python -m repro.faults coverage fault-results/ --out coverage.md
    python -m repro.faults coverage fault-results/ --gate --min-coverage 0.5
    python -m repro.faults sweep --preset smoke --count 2 --seed 7 \\
        --faults smoke --systems mls-v1 --ladder 3 --out sweep/
    python -m repro.faults bisect --preset smoke --count 2 --seed 7 \\
        --faults smoke --systems mls-v1 --resolution 0.25 --out bisect/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.bench.tables import format_percent
from repro.faults.coverage import accumulate_coverage, render_coverage_report
from repro.faults.spec import (
    FAULT_MODES,
    FAULT_PRESETS,
    MODE_DESCRIPTIONS,
    TARGET_DESCRIPTIONS,
    FaultSpec,
    resolve_faults,
)
from repro.jsonl import write_or_print


def _window_label(spec: FaultSpec) -> str:
    """The schedule column: activation window in a compact, stable form."""
    window = "drawn" if spec.start is None else f"{spec.start:g}s"
    if spec.duration is not None:
        window += f" +{spec.duration:g}s"
    else:
        window += " +rest"
    if spec.below_altitude is not None:
        window += f" below {spec.below_altitude:g}m"
    return window


def _spec_rows(specs: Sequence[FaultSpec]) -> list[list[object]]:
    rows: list[list[object]] = []
    for spec in specs:
        rows.append(
            [
                spec.name,
                spec.target,
                spec.mode,
                f"{spec.severity:g}",
                _window_label(spec),
                f"{spec.probability:g}",
            ]
        )
    return rows


def _print_specs(specs: Sequence[FaultSpec]) -> None:
    from repro.bench.tables import format_table

    print(
        format_table(
            ["Fault", "Target", "Mode", "Severity", "Window", "P(arm)"],
            _spec_rows(specs),
        )
    )


def _cmd_list(args: argparse.Namespace) -> int:
    print("fault taxonomy (target -> modes):")
    for target in sorted(FAULT_MODES):
        print(f"  {target:<12} {TARGET_DESCRIPTIONS.get(target, '')}")
        for mode in FAULT_MODES[target]:
            description = MODE_DESCRIPTIONS.get((target, mode), "")
            print(f"    {mode:<18} {description}")
    print("\nfault presets (use with --faults or Campaign.faults(...)):")
    from repro.bench.tables import format_table

    rows: list[list[object]] = []
    for name, specs in sorted(FAULT_PRESETS.items()):
        targets = sorted({spec.target for spec in specs})
        severities = sorted({f"{spec.severity:g}" for spec in specs}, key=float)
        windows = sorted({_window_label(spec) for spec in specs})
        rows.append(
            [
                name,
                len(specs),
                ", ".join(targets),
                ", ".join(severities),
                "; ".join(windows),
            ]
        )
    print(
        format_table(
            ["Preset", "Specs", "Targets", "Severities", "Schedule"], rows
        )
    )
    print(
        "\nfailure-mode taxonomy: nominal / degraded-success / safe-failsafe "
        "/ unsafe-landing / crash"
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    specs = resolve_faults(args.faults)
    print(f"fault plan {args.faults!r}: {len(specs)} spec(s)")
    _print_specs(specs)
    if args.ladder is not None:
        from dataclasses import replace

        from repro.faults.search.curves import severity_ladder, severity_label

        ladder = severity_ladder(args.ladder)
        print(
            f"\nseverity ladder ({args.ladder} points): "
            f"{', '.join(severity_label(v) for v in ladder)}"
        )
        print("sweep grid (what `sweep --ladder` would probe):")
        _print_specs(
            [
                replace(spec, severity=severity)
                for spec in specs
                for severity in ladder
            ]
        )
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.analysis.io import iter_records

    report = accumulate_coverage(iter_records([Path(p) for p in args.results]))
    write_or_print(render_coverage_report(report), args.out)
    if not args.gate:
        return 0
    return _coverage_gate(report, args)


def _coverage_gate(report: object, args: argparse.Namespace) -> int:
    """The Wilson-lower-bound coverage gate (``coverage --gate``).

    Gating on the interval's lower bound instead of the point estimate is
    what scales past byte-identical smoke baselines: a small campaign with
    perfect observed coverage still fails a high bar until it has flown
    enough activated injections to *prove* the bar statistically.
    """
    from repro.analysis.stats import wilson_interval

    if args.min_coverage is None:
        raise ValueError("--gate requires --min-coverage")
    if not 0.0 <= args.min_coverage <= 1.0:
        raise ValueError(f"--min-coverage must be in [0, 1], got {args.min_coverage:g}")
    activated = sum(c.activated for c in report.faults.values())
    covered = sum(c.covered for c in report.faults.values())
    low, high = wilson_interval(covered, activated, args.confidence)
    observed = covered / activated if activated else float("nan")
    confidence_pct = f"{100.0 * args.confidence:g}%"
    print(
        f"\ncoverage gate: {covered}/{activated} activated injections covered "
        f"(observed {format_percent(observed)}), Wilson {confidence_pct} interval "
        f"[{100.0 * low:.1f}%, {100.0 * high:.1f}%]"
    )
    if low < args.min_coverage:
        print(
            f"coverage gate FAILED: Wilson lower bound {100.0 * low:.1f}% < "
            f"required {100.0 * args.min_coverage:g}%"
        )
        return 1
    print(
        f"coverage gate passed: Wilson lower bound {100.0 * low:.1f}% >= "
        f"required {100.0 * args.min_coverage:g}%"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic fault-injection campaigns and coverage reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the fault taxonomy and fault presets")

    describe = sub.add_parser("describe", help="inspect a fault preset or plan file")
    describe.add_argument(
        "--faults", default="full",
        help="fault preset name or fault-plan JSON file (default: full)",
    )
    describe.add_argument(
        "--ladder", type=int, default=None, metavar="N",
        help="also print the N-point severity ladder a sweep would probe",
    )

    coverage = sub.add_parser(
        "coverage", help="render the fault-coverage report from persisted results"
    )
    coverage.add_argument(
        "results", nargs="+",
        help="campaign-result JSONL files, result directories or dispatch dirs",
    )
    coverage.add_argument("--out", default=None, help="write the report here")
    coverage.add_argument(
        "--gate", action="store_true",
        help="exit 1 unless the Wilson lower bound of overall coverage "
             "reaches --min-coverage",
    )
    coverage.add_argument(
        "--min-coverage", type=float, default=None, metavar="X",
        help="required coverage (0..1) for --gate",
    )
    coverage.add_argument(
        "--confidence", type=float, default=0.95,
        help="confidence level for the Wilson interval (default: 0.95)",
    )

    from repro.faults.search.cli import add_search_commands

    add_search_commands(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "describe":
            return _cmd_describe(args)
        if args.command == "sweep":
            from repro.faults.search.cli import cmd_sweep

            return cmd_sweep(args)
        if args.command == "bisect":
            from repro.faults.search.cli import cmd_bisect

            return cmd_bisect(args)
        return _cmd_coverage(args)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
