"""Scenario-suite CLI: ``python -m repro.scenarios``.

Subcommands:

* ``presets`` — list the named suite presets and the stress axes.
* ``generate`` — sample a suite from a preset, print its axis coverage and
  optionally export it as JSONL (``--out``).
* ``describe`` — inspect a preset's spec or a previously exported suite file.
* ``export`` — ``generate`` that requires ``--out`` (for scripts/CI).
* ``run`` — run a campaign over a generated (or loaded) suite, persisting
  per-run JSONL results under ``--out`` so the campaign is resumable.

Examples::

    python -m repro.scenarios generate --seed 7 --count 500
    python -m repro.scenarios export --preset night --count 50 --out night.jsonl
    python -m repro.scenarios describe --suite night.jsonl
    python -m repro.scenarios run --preset smoke --systems mls-v1 \\
        --workers 2 --out results/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.world.scenario_gen import (
    PRESET_NAMES,
    STRESS_AXES,
    SUITE_PRESETS,
    axis_coverage,
    generate_suite,
)
from repro.world.scenario_suite import ScenarioSuite

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.spec import FaultSpec


def _suite_summary(suite: ScenarioSuite) -> str:
    coverage = axis_coverage(suite)
    spanned = sum(1 for hits in coverage.values() if hits > 0)
    lines = [
        f"suite {suite.name or '(unnamed)'}: {len(suite)} scenarios, "
        f"{suite.repetitions} repetition(s), {suite.adverse_count} adverse-weather",
        f"stress axes spanned: {spanned}/{len(STRESS_AXES)}",
    ]
    width = max(len(axis) for axis in STRESS_AXES)
    for axis, hits in coverage.items():
        share = 100.0 * hits / len(suite) if len(suite) else 0.0
        lines.append(f"  {axis:<{width}}  {hits:>5} scenarios ({share:5.1f}%)")
    return "\n".join(lines)


def resolve_suite_args(
    args: argparse.Namespace,
) -> tuple[ScenarioSuite, tuple[FaultSpec, ...]]:
    """Build the suite a CLI invocation asked for, plus its fault axis.

    Shared by every campaign-running CLI that exposes the standard
    ``--suite`` / ``--spec`` / ``--preset`` / ``--count`` / ``--seed`` /
    ``--repetitions`` arguments (``repro.scenarios``, ``repro.dispatch`` and
    ``repro.faults``).  The fault axis is the one a ``--spec`` file declares
    (empty for suite files and presets), exactly what ``Campaign.suite(spec)``
    flies.  A ``--spec`` SuiteSpec JSON file goes through the structured
    validator (:mod:`repro.world.spec_validation`), so every field problem is
    reported at once — the same checks the campaign service applies to
    submissions.
    """
    if getattr(args, "suite", None):
        return ScenarioSuite.from_jsonl(args.suite), ()
    if getattr(args, "spec", None):
        from repro.world.spec_validation import load_suite_spec

        spec = load_suite_spec(args.spec)
        suite = generate_suite(
            spec, count=args.count, seed=args.seed, repetitions=args.repetitions
        )
        return suite, tuple(spec.faults)
    suite = generate_suite(
        args.preset, count=args.count, seed=args.seed, repetitions=args.repetitions
    )
    return suite, ()


def _add_generation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default="stress",
        choices=sorted(PRESET_NAMES),
        help="suite preset to sample from (default: stress, every axis engaged)",
    )
    parser.add_argument(
        "--spec", default=None,
        help="generate from a SuiteSpec JSON file instead of a preset "
        "(validated field by field; see SuiteSpec.to_dict)",
    )
    parser.add_argument("--seed", type=int, default=None, help="suite master seed")
    parser.add_argument("--count", type=int, default=None, help="number of scenarios")
    parser.add_argument(
        "--repetitions", type=int, default=None, help="repetitions per scenario"
    )


def _cmd_presets(args: argparse.Namespace) -> int:
    print("suite presets:")
    print(f"  {'paper':<16} the paper's fixed 10-map x 10-scenario suite (§IV.B.1)")
    for name, spec in sorted(SUITE_PRESETS.items()):
        sample = spec.with_overrides(count=min(spec.count, 30)).generate()
        axes = [axis for axis, hits in axis_coverage(sample).items() if hits > 0]
        print(f"  {name:<16} {spec.count} scenarios; axes: {', '.join(axes) or 'none'}")
    print("\nstress axes:")
    for axis, description in STRESS_AXES.items():
        print(f"  {axis:<18} {description}")
    return 0


def _cmd_generate(args: argparse.Namespace, require_out: bool = False) -> int:
    if require_out and not args.out:
        print("export requires --out FILE", file=sys.stderr)
        return 2
    suite, _ = resolve_suite_args(args)
    failures = 0
    if args.check_buildable:
        for scenario in suite:
            try:
                scenario.build_world()
            except Exception as error:  # pragma: no cover - defensive
                failures += 1
                print(f"  BUILD FAILURE {scenario.scenario_id}: {error}", file=sys.stderr)
    print(_suite_summary(suite))
    if args.check_buildable:
        print(f"buildable: {len(suite) - failures}/{len(suite)}")
    if args.out:
        path = suite.to_jsonl(args.out)
        print(f"wrote {path}")
    return 1 if failures else 0


def _cmd_describe(args: argparse.Namespace) -> int:
    if not args.suite and args.preset in SUITE_PRESETS:
        spec = SUITE_PRESETS[args.preset].with_overrides(
            args.count, args.seed, args.repetitions
        )
        print(f"preset {args.preset}: seed={spec.seed} count={spec.count} "
              f"repetitions={spec.repetitions} map_pool={spec.map_pool}")
        scenario = spec.scenario
        print(f"  map styles: {[style.value for style in scenario.map_styles]}")
        print(f"  adverse-weather probability: {scenario.adverse_probability}")
        for axis_field in (
            "wind_speed", "gust_intensity", "gps_degradation", "image_noise",
            "precipitation", "obstacle_density", "lighting", "target_occlusion",
        ):
            value = getattr(scenario, axis_field)
            if value is not None:
                print(f"  {axis_field}: [{value.low}, {value.high}]")
        print(f"  decoys: {scenario.decoy_count}, gps error: "
              f"[{scenario.gps_error.low}, {scenario.gps_error.high}] m")
        print()
    suite, _ = resolve_suite_args(args)
    print(_suite_summary(suite))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # Deferred import: the campaign module pulls in the whole system stack,
    # which suite generation/description does not need.
    from repro.bench.campaign import Campaign
    from repro.bench.tables import render_outcome_rates

    suite, faults = resolve_suite_args(args)
    campaign = Campaign(*[name.strip() for name in args.systems.split(",") if name.strip()])
    campaign.suite(suite).faults(*faults)
    if args.repetitions is not None:
        campaign.repetitions(args.repetitions)
    if args.workers > 1:
        campaign.parallel(args.workers)
    if args.out:
        campaign.out(args.out)
    if args.trace:
        campaign.trace(args.trace)
    if args.verbose:
        campaign.progress(print)
    results = campaign.run()
    print(render_outcome_rates(results))
    if args.out:
        print(f"per-run JSONL results under {args.out} (re-run to resume)")
    if args.trace:
        print(
            f"flight traces under {args.trace} "
            f"(report: python -m repro.obs report {args.trace})"
        )
    if args.report:
        from repro.analysis import CampaignAnalysis

        analysis = CampaignAnalysis(results, suites=[suite])
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(analysis.report(), encoding="utf-8")
        print(f"analytics report written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Generate, inspect and run procedural scenario suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list suite presets and stress axes")

    for name, help_text in (
        ("generate", "sample a suite and print its axis coverage"),
        ("export", "sample a suite and write it as JSONL (requires --out)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_generation_args(cmd)
        cmd.add_argument("--out", default=None, help="write the suite as JSONL here")
        cmd.add_argument(
            "--check-buildable",
            action="store_true",
            help="also instantiate every scenario's world (slower)",
        )

    describe = sub.add_parser("describe", help="inspect a preset spec or a suite file")
    _add_generation_args(describe)
    describe.add_argument("--suite", default=None, help="a suite JSONL file to inspect")

    run = sub.add_parser("run", help="run a campaign over a generated suite")
    _add_generation_args(run)
    run.add_argument("--suite", default=None, help="run over a suite JSONL file instead")
    run.add_argument(
        "--systems", default="mls-v1,mls-v2,mls-v3",
        help="comma-separated system presets (default: all three generations)",
    )
    run.add_argument("--workers", type=int, default=1, help="worker processes")
    run.add_argument("--out", default=None, help="directory for per-run JSONL results")
    run.add_argument(
        "--trace", default=None,
        help="directory for flight-trace JSONL (side-channel: campaign "
        "records are byte-identical with or without it)",
    )
    run.add_argument(
        "--report", default=None,
        help="write a markdown analytics report (Wilson/bootstrap CIs) here; "
        "see python -m repro.analysis for the full toolkit",
    )
    run.add_argument("--verbose", action="store_true", help="print one line per run")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            return _cmd_presets(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "export":
            return _cmd_generate(args, require_out=True)
        if args.command == "describe":
            return _cmd_describe(args)
        return _cmd_run(args)
    except (FileNotFoundError, ValueError) as error:
        # Missing suite files and invalid --spec payloads (including the
        # multi-line issue list of a SpecValidationError) get a diagnostic
        # and exit 2, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
