"""CLI wiring for ``python -m repro.faults sweep`` / ``bisect``.

Kept out of :mod:`repro.faults.cli` so the top-level parser stays cheap to
import; everything heavy (the campaign stack behind the backend) is
imported inside the command functions.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any

from repro.faults.search.backend import DispatchProbeBackend
from repro.faults.search.bisect import (
    BISECTION_FILENAME,
    BISECTION_REPORT_FILENAME,
    DEFAULT_RESOLUTION,
    bisect_severity,
    render_bisection_report,
    write_bisection,
)
from repro.faults.search.curves import parse_severities, severity_ladder, severity_label
from repro.faults.search.sweep import PROBES_DIRNAME, run_sweep
from repro.faults.spec import resolve_faults
from repro.jsonl import write_text_atomic
from repro.scenarios import add_suite_args, resolve_suite_args


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    add_suite_args(parser, preset="smoke")
    parser.add_argument(
        "--faults", default="smoke",
        help="fault preset name or fault-plan JSON file (default: smoke)",
    )
    parser.add_argument(
        "--systems", default="mls-v3",
        help="comma-separated system presets (default: mls-v3)",
    )
    parser.add_argument(
        "--out", required=True,
        help="output directory (probe dispatches, curves, reports); "
             "re-running with the same arguments resumes from it",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="local worker processes per probe (default: 1, in-process)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shards per probe dispatch (default: 1)",
    )
    parser.add_argument("--verbose", action="store_true", help="print probe progress")


def add_search_commands(sub: Any) -> None:
    """Register the ``sweep`` and ``bisect`` subparsers."""
    sweep = sub.add_parser(
        "sweep",
        help="sweep a severity ladder per fault spec; emit coverage and "
             "failure-mode curves",
    )
    _add_common_args(sweep)
    ladder = sweep.add_mutually_exclusive_group()
    ladder.add_argument(
        "--ladder", type=int, default=5, metavar="N",
        help="N evenly spaced severities covering [0, 1] (default: 5)",
    )
    ladder.add_argument(
        "--severities", default=None,
        help="explicit comma-separated severity ladder (e.g. 0,0.5,1)",
    )

    bisect = sub.add_parser(
        "bisect",
        help="bisect severity per (fault, scenario, system, repetition) cell "
             "to locate the failure-mode flip threshold",
    )
    _add_common_args(bisect)
    bisect.add_argument(
        "--resolution", type=float, default=DEFAULT_RESOLUTION,
        help=f"stop once the severity bracket is this narrow "
             f"(default: {DEFAULT_RESOLUTION:g})",
    )


def _build_backend(args: argparse.Namespace) -> DispatchProbeBackend:
    from repro.core.config import preset

    names = [name.strip() for name in args.systems.split(",") if name.strip()]
    if not names:
        raise ValueError("at least one system preset is required")
    return DispatchProbeBackend(
        Path(args.out) / PROBES_DIRNAME,
        resolve_suite_args(args),
        [preset(name) for name in names],
        repetitions=args.repetitions,
        shards=args.shards,
        workers=args.workers,
        progress=print if args.verbose else None,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    backend = _build_backend(args)
    specs = resolve_faults(args.faults)
    severities = (
        parse_severities(args.severities)
        if args.severities is not None
        else severity_ladder(args.ladder)
    )
    result = run_sweep(backend, specs, severities, out_dir=args.out)
    print(result.report, end="")
    print(f"coverage curve:      {result.coverage_path}")
    print(f"failure-mode curve:  {result.failure_modes_path}")
    print(f"sweep report:        {result.report_path}")
    return 0


def cmd_bisect(args: argparse.Namespace) -> int:
    backend = _build_backend(args)
    specs = resolve_faults(args.faults)
    results = bisect_severity(
        backend,
        specs,
        resolution=args.resolution,
        progress=print if args.verbose else None,
    )
    meta = {
        "resolution": severity_label(args.resolution),
        "specs": ", ".join(sorted(spec.name for spec in specs)),
        **backend.describe(),
    }
    out_dir = Path(args.out)
    jsonl_path = write_bisection(out_dir / BISECTION_FILENAME, results, meta=meta)
    report = render_bisection_report(results, meta=meta)
    report_path = write_text_atomic(out_dir / BISECTION_REPORT_FILENAME, report)
    print(report, end="")
    print(f"bisection results:  {jsonl_path}")
    print(f"bisection report:   {report_path}")
    return 0
