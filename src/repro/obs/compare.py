"""Statistical phase-level comparison of two flight-trace directories.

``python -m repro.obs compare <baseline-dir> <current-dir>`` answers the
question a tripped throughput gate leaves open: *which mission phase*
regressed.  Per ``(system, phase)`` it collects the per-run seconds from
both trace directories — measured wall seconds by default, or the
deterministic platform-model nominal seconds with ``--metric nominal`` —
and bootstraps a confidence interval on ``mean(current) -
mean(baseline)`` with the same seeded machinery campaign analytics use,
so the verdicts are reproducible for given inputs.

When both sides flew the same runs — the same ``(scenario_id,
repetition)`` set, each once — the comparison is paired: it bootstraps
the mean of the per-run differences
(:func:`repro.analysis.stats.bootstrap_mean_ci`), so the spread between
scenarios, which is the same on both sides, no longer hides a shift.
Otherwise the two sides are resampled independently
(:func:`repro.analysis.stats.bootstrap_diff_ci`).

The flags are direction-aware for time: a CI entirely above zero means the
phase got significantly *slower* (a regression, exit code 1); entirely
below zero means significantly faster (reported, not fatal).  A
self-comparison of a directory against itself can never flag a regression:
identical samples bootstrap to a zero-centred (or exactly-zero) interval,
and the regression test is strict (``low > 0``); paired, every difference
is zero and so is the interval.

This is also the attribution engine ``repro.bench.perfgate check`` renders
automatically when a throughput floor is breached and trace directories
for both sides are supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.analysis.stats import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    bootstrap_diff_ci,
    bootstrap_mean_ci,
    metric_seed,
)
from repro.bench.tables import format_markdown_table

#: Per-run seconds sources a comparison can run over.
METRIC_CHOICES = ("wall", "nominal")


RunKey = tuple[str, int]


def phase_samples(
    summaries: Sequence[dict[str, Any]], metric: str = "wall"
) -> dict[tuple[str, str], list[tuple[RunKey, float]]]:
    """Per-``(system, phase)`` lists of ``((scenario_id, repetition),
    seconds)``, one per run, in summary order.

    ``wall`` reads each run's measured span seconds; ``nominal`` reads the
    platform model's deterministic detect/map/plan charges.  Callers pass
    summaries from :func:`repro.obs.report.collect_summaries`, which sorts
    them, so the sample vectors — and therefore the bootstrap draws — do
    not depend on worker interleaving.
    """
    if metric not in METRIC_CHOICES:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_CHOICES}")
    samples: dict[tuple[str, str], list[tuple[RunKey, float]]] = {}
    for summary in summaries:
        system = str(summary.get("system", ""))
        run = (str(summary.get("scenario_id", "")), int(summary.get("repetition", 0)))
        if metric == "wall":
            seconds = {
                phase: span.get("wall_s", 0.0) for phase, span in summary.get("spans", {}).items()
            }
        else:
            seconds = summary.get("nominal_s", {})
        for phase, value in seconds.items():
            samples.setdefault((system, str(phase)), []).append((run, float(value)))
    return samples


def _paired_differences(
    baseline: Sequence[tuple[RunKey, float]], current: Sequence[tuple[RunKey, float]]
) -> list[float] | None:
    """``current - baseline`` per run, in run order, when both sides hold
    the same runs each once; ``None`` when they cannot be paired."""
    base, curr = dict(baseline), dict(current)
    if not base or len(base) != len(baseline) or len(curr) != len(current) or base.keys() != curr.keys():
        return None
    return [curr[run] - base[run] for run in sorted(base)]


@dataclass(frozen=True)
class PhaseComparison:
    """One ``(system, phase)`` verdict: mean shift with a bootstrap CI."""

    system: str
    phase: str
    metric: str
    baseline_runs: int
    current_runs: int
    baseline_mean: float
    current_mean: float
    ci_low: float
    ci_high: float
    paired: bool = False

    @property
    def comparable(self) -> bool:
        """Both sides produced samples (NaN CIs are never verdicts)."""
        return self.baseline_runs > 0 and self.current_runs > 0

    @property
    def regressed(self) -> bool:
        """Significantly slower: the CI on the mean shift excludes zero
        from above (time metrics: higher is worse)."""
        return self.comparable and self.ci_low > 0.0

    @property
    def improved(self) -> bool:
        """Significantly faster: the CI excludes zero from below."""
        return self.comparable and self.ci_high < 0.0

    @property
    def verdict(self) -> str:
        if not self.comparable:
            return "n/a"
        if self.regressed:
            return "REGRESSED"
        if self.improved:
            return "improved"
        return "~"


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def compare_phases(
    baseline: Sequence[dict[str, Any]],
    current: Sequence[dict[str, Any]],
    *,
    metric: str = "wall",
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> list[PhaseComparison]:
    """Compare two summary sets per ``(system, phase)``, sorted output.

    Every phase draws its bootstrap from its own
    :func:`~repro.analysis.stats.metric_seed`-derived stream, so adding or
    removing phases never reshuffles another phase's interval.  A phase
    whose two sides hold the same runs is compared paired (see the module
    docstring).
    """
    base = phase_samples(baseline, metric)
    curr = phase_samples(current, metric)
    comparisons: list[PhaseComparison] = []
    for system, phase in sorted(set(base) | set(curr)):
        a = base.get((system, phase), [])
        b = curr.get((system, phase), [])
        differences = _paired_differences(a, b)
        bootstrap = dict(
            confidence=confidence,
            resamples=resamples,
            seed=metric_seed(seed, "obs-compare", metric, system, phase),
        )
        a_seconds = [value for _, value in a]
        b_seconds = [value for _, value in b]
        if differences is not None:
            low, high = bootstrap_mean_ci(differences, **bootstrap)
        else:
            low, high = bootstrap_diff_ci(a_seconds, b_seconds, **bootstrap)
        comparisons.append(
            PhaseComparison(
                system=system,
                phase=phase,
                metric=metric,
                baseline_runs=len(a),
                current_runs=len(b),
                baseline_mean=_mean(a_seconds),
                current_mean=_mean(b_seconds),
                ci_low=low,
                ci_high=high,
                paired=differences is not None,
            )
        )
    return comparisons


def render_compare(
    comparisons: Sequence[PhaseComparison],
    *,
    metric: str = "wall",
    confidence: float = DEFAULT_CONFIDENCE,
) -> str:
    """The markdown phase-attribution report over ``comparisons``."""

    def seconds(value: float) -> str:
        return "n/a" if value != value else f"{value:.6f}"

    lines = ["# Flight-trace phase comparison", ""]
    lines.append(
        f"Per-run {'wall-clock' if metric == 'wall' else 'nominal (deterministic)'} "
        f"seconds per (system, phase); CI is a {confidence:.0%} bootstrap interval "
        f"on mean(current) - mean(baseline), over per-run differences where both "
        f"sides flew the same runs (paired). Positive = slower."
    )
    lines.append("")
    rows: list[list[object]] = []
    for comparison in comparisons:
        rows.append(
            [
                comparison.system,
                comparison.phase,
                f"{comparison.baseline_runs}/{comparison.current_runs}"
                + (" paired" if comparison.paired else ""),
                seconds(comparison.baseline_mean),
                seconds(comparison.current_mean),
                f"[{seconds(comparison.ci_low)}, {seconds(comparison.ci_high)}]",
                comparison.verdict,
            ]
        )
    lines.append(
        format_markdown_table(
            ["System", "Phase", "Runs b/c", "Baseline s", "Current s",
             "Diff CI", "Verdict"],
            rows,
        )
    )
    lines.append("")
    regressions = [c for c in comparisons if c.regressed]
    improvements = [c for c in comparisons if c.improved]
    if regressions:
        lines.append(
            f"{len(regressions)} phase(s) significantly slower: "
            + ", ".join(f"{c.system}/{c.phase}" for c in regressions)
            + "."
        )
    elif improvements:
        lines.append(
            f"No regressions; {len(improvements)} phase(s) significantly faster."
        )
    else:
        lines.append("No significant phase-level shift either way.")
    lines.append("")
    return "\n".join(lines)
