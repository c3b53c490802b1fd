"""Campaign analytics CLI: ``python -m repro.analysis``.

Subcommands:

* ``summarize`` — per-system rates with Wilson CIs, continuous metrics with
  bootstrap CIs, and the paper side-by-side, as deterministic markdown.
* ``slice`` — the same rates grouped by a scenario factor (stress axis,
  wind band, lighting band, obstacle density, map, platform, ...).
* ``compare`` — statistical diff of two campaigns (two-proportion z-tests
  for rates, bootstrap difference CIs for metrics).
* ``gate`` — ``compare`` that exits non-zero when the current campaign has
  a significant regression vs the baseline; made for CI.

Results arguments are persisted-campaign sources: a ``*.jsonl`` file written
by ``Campaign.out(...)`` / ``CampaignResult.to_jsonl`` or a directory of
them (suite JSONL files found in a results directory are joined
automatically so scenario factors resolve).

Examples::

    python -m repro.analysis summarize results/ --out report.md
    python -m repro.analysis slice results/ --by stress-axis
    python -m repro.analysis compare results-a/ results-b/
    python -m repro.analysis gate results/ --baseline baselines/campaign-smoke
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.compare import DEFAULT_ALPHA
from repro.analysis.engine import CampaignAnalysis
from repro.analysis.report import render_comparison_report
from repro.analysis.slicing import FACTOR_NAMES
from repro.analysis.stats import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES
from repro.jsonl import write_or_print


def _analysis(args: argparse.Namespace, source: str) -> CampaignAnalysis:
    return CampaignAnalysis(
        source, seed=args.seed, confidence=args.confidence, resamples=args.resamples
    )


def _add_common_args(parser: argparse.ArgumentParser, *, bootstrap: bool = True) -> None:
    """``--confidence`` and ``--out``, plus the bootstrap's ``--seed`` and
    ``--resamples`` where the report draws one (a slice report does not)."""
    parser.add_argument(
        "--confidence", type=float, default=DEFAULT_CONFIDENCE,
        help="confidence level for all intervals (default: %(default)s)",
    )
    if bootstrap:
        parser.add_argument(
            "--seed", type=int, default=0,
            help="bootstrap base seed (same data + seed -> byte-identical output)",
        )
        parser.add_argument(
            "--resamples", type=int, default=DEFAULT_RESAMPLES,
            help="bootstrap resample count (default: %(default)s)",
        )
    parser.add_argument("--out", default=None, help="write the markdown report here")


def _cmd_summarize(args: argparse.Namespace) -> int:
    analysis = _analysis(args, args.results)
    if not analysis.summaries():
        print(f"no run records found under {args.results}", file=sys.stderr)
        return 2
    write_or_print(analysis.report(), args.out)
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    analysis = CampaignAnalysis(
        args.results, suites=args.suite or (), confidence=args.confidence
    )
    if not analysis.summaries():
        print(f"no run records found under {args.results}", file=sys.stderr)
        return 2
    write_or_print(analysis.slice_report(args.by), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace, gate: bool = False) -> int:
    current_source = args.results
    baseline_source = args.baseline
    current = _analysis(args, current_source)
    comparison = current.compare_to(
        baseline_source,
        alpha=args.alpha,
        baseline_label=str(baseline_source),
        current_label=str(current_source),
    )
    if not comparison.rates and not (comparison.baseline_only or comparison.current_only):
        print("no overlapping systems to compare", file=sys.stderr)
        return 2
    write_or_print(render_comparison_report(comparison), args.out)
    if gate and comparison.has_regression:
        problems = [f"{d.system}/{d.metric}" for d in comparison.regressions]
        problems.extend(
            f"{name} missing from current results" for name in comparison.baseline_only
        )
        print(
            f"GATE FAILED vs {baseline_source}: {'; '.join(problems)}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statistical analysis of persisted campaign results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="per-system rates and metrics with confidence intervals"
    )
    summarize.add_argument("results", help="campaign JSONL file or results directory")
    _add_common_args(summarize)

    slice_cmd = sub.add_parser("slice", help="group results by a scenario factor")
    slice_cmd.add_argument("results", help="campaign JSONL file or results directory")
    slice_cmd.add_argument(
        "--by", required=True, choices=list(FACTOR_NAMES),
        help="the factor to slice by",
    )
    slice_cmd.add_argument(
        "--suite", action="append", default=None,
        help="suite JSONL file or preset name for the scenario join (repeatable)",
    )
    _add_common_args(slice_cmd, bootstrap=False)

    compare = sub.add_parser("compare", help="statistically diff two campaigns")
    compare.add_argument("baseline", help="baseline campaign JSONL file or directory")
    compare.add_argument("results", help="current campaign JSONL file or directory")
    compare.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="significance level for the tests (default: %(default)s)",
    )
    _add_common_args(compare)

    gate = sub.add_parser(
        "gate", help="compare vs a baseline; exit 1 on significant regression"
    )
    gate.add_argument("results", help="current campaign JSONL file or directory")
    gate.add_argument(
        "--baseline", required=True,
        help="baseline campaign JSONL file or directory to gate against",
    )
    gate.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="significance level for the regression tests (default: %(default)s)",
    )
    _add_common_args(gate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            return _cmd_summarize(args)
        if args.command == "slice":
            return _cmd_slice(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_compare(args, gate=True)
    except (FileNotFoundError, ValueError) as error:
        # Missing/empty sources, wrong JSONL kinds, unknown presets: known
        # user-input failures get a diagnostic and exit 2, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
