"""Campaign diffing and regression detection.

Compares two campaigns — e.g. detector-grid variant A vs B, or the current
results vs a committed baseline JSONL directory — system by system:

* every rate in :data:`~repro.analysis.stats.RATE_METRICS` is tested with
  the pooled two-proportion z-test;
* every continuous metric gets a seeded bootstrap CI on the difference of
  means (significant when the CI excludes zero);
* a *regression* is a significant change in the harmful direction (success
  down; collision / poor-landing / false-negative / landing-error up), which
  is what ``python -m repro.analysis gate`` turns into a non-zero exit code
  for CI.

The paper comparison is deliberately softer: the reproduction runs on a
synthetic substrate, so :func:`compare_to_paper` only reports whether the
paper's value falls inside each reproduced Wilson interval — a drift
indicator, not a gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.bench import paper_values

from repro.analysis.stats import (
    CONTINUOUS_METRICS,
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    RATE_METRICS,
    MetricEstimate,
    ProportionTest,
    RateEstimate,
    SystemSummary,
    bootstrap_diff_ci,
    metric_seed,
    two_proportion_test,
)

#: Default significance level for the regression gate.
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class RateDelta:
    """One rate compared across two campaigns."""

    system: str
    metric: str
    baseline: RateEstimate
    current: RateEstimate
    test: ProportionTest
    alpha: float
    higher_is_better: bool

    @property
    def delta(self) -> float:
        """Current minus baseline rate (fraction, not percent)."""
        return self.current.rate - self.baseline.rate

    @property
    def significant(self) -> bool:
        return self.test.significant(self.alpha)

    @property
    def worsened(self) -> bool:
        moved = self.delta < 0 if self.higher_is_better else self.delta > 0
        return moved

    @property
    def regression(self) -> bool:
        return self.significant and self.worsened

    @property
    def verdict(self) -> str:
        if not self.significant:
            return "no significant change"
        return "REGRESSION" if self.worsened else "improvement"


@dataclass(frozen=True)
class MetricDelta:
    """One continuous metric compared across two campaigns."""

    system: str
    metric: str
    baseline: MetricEstimate
    current: MetricEstimate
    diff_low: float
    diff_high: float
    alpha: float
    #: ``None`` marks an informational metric that never gates.
    higher_is_better: bool | None

    @property
    def delta(self) -> float:
        return self.current.mean - self.baseline.mean

    @property
    def significant(self) -> bool:
        """Whether the bootstrap CI of the difference excludes zero.

        Exclusion is tested against a relative noise floor rather than exact
        zero: two campaigns whose samples are *identical* still differ by
        ~1e-17 in the mean when their sample counts differ (float summation
        order), and a zero-width CI at that epsilon must not gate a build.
        """
        if math.isnan(self.diff_low) or math.isnan(self.diff_high):
            return False
        tolerance = 1e-9 * max(
            abs(self.baseline.mean), abs(self.current.mean), 1.0
        )
        return self.diff_low > tolerance or self.diff_high < -tolerance

    @property
    def worsened(self) -> bool:
        if self.higher_is_better is None:
            return False
        return self.delta < 0 if self.higher_is_better else self.delta > 0

    @property
    def regression(self) -> bool:
        return self.significant and self.worsened

    @property
    def verdict(self) -> str:
        if self.higher_is_better is None:
            return "informational"
        if not self.significant:
            return "no significant change"
        return "REGRESSION" if self.worsened else "improvement"


@dataclass
class CampaignComparison:
    """The full diff of two campaigns."""

    baseline_label: str
    current_label: str
    alpha: float
    rates: list[RateDelta] = field(default_factory=list)
    metrics: list[MetricDelta] = field(default_factory=list)
    #: Systems present on only one side (never compared, always reported).
    baseline_only: tuple[str, ...] = ()
    current_only: tuple[str, ...] = ()

    @property
    def regressions(self) -> list[RateDelta | MetricDelta]:
        flagged: list[RateDelta | MetricDelta] = []
        flagged.extend(delta for delta in self.rates if delta.regression)
        flagged.extend(delta for delta in self.metrics if delta.regression)
        return flagged

    @property
    def has_regression(self) -> bool:
        """Whether the gate should fail.

        A baseline system that produced *no* records in the current campaign
        is the worst regression of all (it crashed or was silently dropped),
        so ``baseline_only`` fails the gate alongside the statistical
        regressions.  New systems in the current campaign do not.
        """
        return bool(self.regressions) or bool(self.baseline_only)


def compare_summaries(
    baseline: Mapping[str, SystemSummary],
    current: Mapping[str, SystemSummary],
    *,
    alpha: float = DEFAULT_ALPHA,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    baseline_label: str = "baseline",
    current_label: str = "current",
) -> CampaignComparison:
    """Diff two summary sets (systems compared by name, sorted order)."""
    comparison = CampaignComparison(
        baseline_label=baseline_label,
        current_label=current_label,
        alpha=alpha,
        baseline_only=tuple(sorted(set(baseline) - set(current))),
        current_only=tuple(sorted(set(current) - set(baseline))),
    )
    for system in sorted(set(baseline) & set(current)):
        old, new = baseline[system], current[system]
        for metric, higher_is_better in RATE_METRICS.items():
            old_successes, old_total = old.rate_counts(metric)
            new_successes, new_total = new.rate_counts(metric)
            comparison.rates.append(
                RateDelta(
                    system=system,
                    metric=metric,
                    baseline=RateEstimate.from_counts(old_successes, old_total, confidence),
                    current=RateEstimate.from_counts(new_successes, new_total, confidence),
                    test=two_proportion_test(
                        old_successes, old_total, new_successes, new_total
                    ),
                    alpha=alpha,
                    higher_is_better=higher_is_better,
                )
            )
        for metric, higher_is_better in CONTINUOUS_METRICS.items():
            old_samples = old.metric_samples(metric)
            new_samples = new.metric_samples(metric)
            diff_low, diff_high = bootstrap_diff_ci(
                old_samples.values,
                new_samples.values,
                confidence=confidence,
                resamples=resamples,
                seed=metric_seed(seed, "diff", system, metric),
            )
            comparison.metrics.append(
                MetricDelta(
                    system=system,
                    metric=metric,
                    baseline=old_samples.estimate(
                        seed=metric_seed(seed, baseline_label, system, metric),
                        confidence=confidence,
                        resamples=resamples,
                    ),
                    current=new_samples.estimate(
                        seed=metric_seed(seed, current_label, system, metric),
                        confidence=confidence,
                        resamples=resamples,
                    ),
                    diff_low=diff_low,
                    diff_high=diff_high,
                    alpha=alpha,
                    higher_is_better=higher_is_better,
                )
            )
    return comparison


# ---------------------------------------------------------------------- #
# paper comparison (informational)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PaperDelta:
    """One reproduced rate next to the paper's reported value."""

    system: str
    metric: str
    paper_rate: float  # fraction
    reproduced: RateEstimate

    @property
    def paper_in_interval(self) -> bool:
        return self.reproduced.contains(self.paper_rate)


#: Paper table keys for each gated rate metric.
_PAPER_KEYS = {"success": "success", "collision": "collision", "poor-landing": "poor_landing"}


def compare_to_paper(
    summaries: Mapping[str, SystemSummary],
    paper: Mapping[str, Mapping[str, float]] | None = None,
    *,
    confidence: float = DEFAULT_CONFIDENCE,
) -> list[PaperDelta]:
    """Reproduced outcome rates vs the paper's Table I (or ``paper``) values."""
    paper = paper if paper is not None else paper_values.TABLE_1_SIL
    deltas: list[PaperDelta] = []
    for system in sorted(summaries):
        reference = paper.get(system)
        if not reference:
            continue
        for metric, key in _PAPER_KEYS.items():
            if key not in reference:
                continue
            successes, total = summaries[system].rate_counts(metric)
            deltas.append(
                PaperDelta(
                    system=system,
                    metric=metric,
                    paper_rate=reference[key] / 100.0,
                    reproduced=RateEstimate.from_counts(successes, total, confidence),
                )
            )
    return deltas
