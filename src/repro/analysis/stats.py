"""Streaming statistics for campaign analytics.

The paper's claims are *rate* comparisons (Table I SIL, Table III HIL) and
*accuracy* comparisons (§V.C), so this module provides exactly the estimators
those claims need, computed incrementally over a :class:`RunRecord` stream:

* Wilson score intervals for outcome rates (well-behaved at the small run
  counts of a smoke campaign and at rates near 0 or 1, unlike the normal
  approximation);
* seeded deterministic bootstrap confidence intervals for continuous metrics
  (landing error, detection deviation, mission duration) — the same records
  and seed always produce byte-identical intervals;
* a pooled two-proportion z-test used by campaign diffing to decide whether a
  rate moved *significantly* between two campaigns.

:class:`SystemSummary` is the streaming accumulator: it consumes records one
at a time and keeps only counters plus flat ``float`` sample buffers, never
the record objects themselves.  Memory is therefore bounded by one float per
retained sample — per-run landing errors and mission times, plus the
frame-level detection deviations (the dominant term on long missions) —
which the bootstrap estimators genuinely need, not by the full record
payloads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterable

import numpy as np

from repro.core.metrics import RunOutcome, RunRecord

#: Default confidence level for every interval in this package.
DEFAULT_CONFIDENCE = 0.95
#: Default bootstrap resample count (deterministic given the seed).
DEFAULT_RESAMPLES = 2000

#: Names of the rate estimates a :class:`SystemSummary` produces, in report
#: order.  ``higher_is_better`` drives the regression direction in
#: :mod:`repro.analysis.compare`.
RATE_METRICS: dict[str, bool] = {
    "success": True,
    "collision": False,
    "poor-landing": False,
    "detection-fn": False,
}

#: Continuous metrics and their regression direction (``None`` = informational
#: only, never gated — e.g. mission duration is neither good nor bad per se).
CONTINUOUS_METRICS: dict[str, bool | None] = {
    "landing-error-m": False,
    "detection-deviation-m": False,
    "mission-time-s": None,
}


def _z_value(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _check_resamples(resamples: int) -> None:
    if resamples < 1:
        raise ValueError(f"resamples must be at least 1, got {resamples}")


def wilson_interval(
    successes: int, total: int, confidence: float = DEFAULT_CONFIDENCE
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns the trivial ``(0, 1)`` interval when ``total`` is zero, so empty
    slices render as "no evidence" rather than raising.
    """
    if not 0 <= successes <= total:
        raise ValueError(f"need 0 <= successes <= total, got {successes}/{total}")
    if total == 0:
        return (0.0, 1.0)
    z = _z_value(confidence)
    p = successes / total
    z2 = z * z
    denominator = 1.0 + z2 / total
    centre = (p + z2 / (2.0 * total)) / denominator
    half_width = (z / denominator) * math.sqrt(
        p * (1.0 - p) / total + z2 / (4.0 * total * total)
    )
    return (max(0.0, centre - half_width), min(1.0, centre + half_width))


def metric_seed(base_seed: int, *labels: str) -> int:
    """A stable per-metric bootstrap seed derived from ``base_seed`` + labels.

    Hash-derived (not ``hash()``, which is salted per process) so that the
    same campaign summarised twice — or on two machines — draws the same
    resamples for every metric regardless of how many metrics exist.
    """
    payload = "\x1f".join((str(base_seed), *labels)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def bootstrap_mean_ci(
    samples: Iterable[float],
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``samples`` (deterministic).

    Resampling is batched so the index matrix never exceeds a few dozen
    megabytes however large the sample buffer is; the batch size depends only
    on the sample count, so the draw sequence (and therefore the interval) is
    reproducible for a given ``(samples, seed)``.
    """
    _check_resamples(resamples)
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        return (float("nan"), float("nan"))
    if values.size == 1:
        return (float(values[0]), float(values[0]))
    rng = np.random.default_rng(seed)
    n = int(values.size)
    means = np.empty(resamples, dtype=float)
    batch = max(1, min(resamples, 2_000_000 // n))
    done = 0
    while done < resamples:
        take = min(batch, resamples - done)
        indices = rng.integers(0, n, size=(take, n))
        means[done : done + take] = values[indices].mean(axis=1)
        done += take
    alpha = 1.0 - confidence
    low, high = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return (float(low), float(high))


def bootstrap_diff_ci(
    baseline: Iterable[float],
    current: Iterable[float],
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap CI for ``mean(current) - mean(baseline)`` (deterministic).

    Both campaigns are resampled independently from the same seeded stream;
    a CI excluding zero means the difference is significant at the chosen
    confidence.  NaN bounds when either side is empty.
    """
    _check_resamples(resamples)
    a = np.asarray(list(baseline), dtype=float)
    b = np.asarray(list(current), dtype=float)
    if a.size == 0 or b.size == 0:
        return (float("nan"), float("nan"))
    rng = np.random.default_rng(seed)
    diffs = np.empty(resamples, dtype=float)
    per_row = a.size + b.size
    batch = max(1, min(resamples, 2_000_000 // per_row))
    done = 0
    while done < resamples:
        take = min(batch, resamples - done)
        idx_a = rng.integers(0, a.size, size=(take, a.size))
        idx_b = rng.integers(0, b.size, size=(take, b.size))
        diffs[done : done + take] = b[idx_b].mean(axis=1) - a[idx_a].mean(axis=1)
        done += take
    alpha = 1.0 - confidence
    low, high = np.quantile(diffs, [alpha / 2.0, 1.0 - alpha / 2.0])
    return (float(low), float(high))


@dataclass(frozen=True)
class ProportionTest:
    """Result of a pooled two-proportion z-test."""

    z: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def two_proportion_test(
    baseline_successes: int,
    baseline_total: int,
    current_successes: int,
    current_total: int,
) -> ProportionTest:
    """Pooled two-proportion z-test for ``current`` vs ``baseline``.

    Degenerate inputs (an empty campaign, or both rates pinned at the same
    0/1 extreme) return the null result ``z=0, p=1`` instead of dividing by
    zero — no evidence is never evidence of a change.
    """
    if baseline_total == 0 or current_total == 0:
        return ProportionTest(z=0.0, p_value=1.0)
    p_baseline = baseline_successes / baseline_total
    p_current = current_successes / current_total
    pooled = (baseline_successes + current_successes) / (baseline_total + current_total)
    variance = pooled * (1.0 - pooled) * (1.0 / baseline_total + 1.0 / current_total)
    if variance <= 0.0:
        return ProportionTest(z=0.0, p_value=1.0)
    z = (p_current - p_baseline) / math.sqrt(variance)
    p_value = 2.0 * (1.0 - NormalDist().cdf(abs(z)))
    return ProportionTest(z=z, p_value=p_value)


# ---------------------------------------------------------------------- #
# estimates
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RateEstimate:
    """A binomial rate with its Wilson interval."""

    successes: int
    total: int
    rate: float
    low: float
    high: float
    confidence: float

    @classmethod
    def from_counts(
        cls, successes: int, total: int, confidence: float = DEFAULT_CONFIDENCE
    ) -> "RateEstimate":
        low, high = wilson_interval(successes, total, confidence)
        rate = successes / total if total else float("nan")
        return cls(
            successes=successes,
            total=total,
            rate=rate,
            low=low,
            high=high,
            confidence=confidence,
        )

    def contains(self, rate: float) -> bool:
        """Whether ``rate`` (a fraction, not a percent) lies in the interval."""
        return self.low <= rate <= self.high


@dataclass(frozen=True)
class MetricEstimate:
    """A sample mean with its bootstrap interval."""

    count: int
    mean: float
    low: float
    high: float
    confidence: float


@dataclass
class MetricSamples:
    """A streaming buffer of finite scalar samples for one metric."""

    name: str
    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        if math.isfinite(value):
            self.values.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")

    def estimate(
        self,
        *,
        seed: int = 0,
        confidence: float = DEFAULT_CONFIDENCE,
        resamples: int = DEFAULT_RESAMPLES,
    ) -> MetricEstimate:
        low, high = bootstrap_mean_ci(
            self.values, confidence=confidence, resamples=resamples, seed=seed
        )
        return MetricEstimate(
            count=len(self.values),
            mean=self.mean,
            low=low,
            high=high,
            confidence=confidence,
        )


# ---------------------------------------------------------------------- #
# the streaming per-system accumulator
# ---------------------------------------------------------------------- #
@dataclass
class SystemSummary:
    """Streaming aggregate of one system's run records.

    Only counters and scalar sample buffers are retained — records are
    dropped as they stream past, but the scalar samples the bootstrap needs
    (landing error and mission time per run, detection deviation per frame)
    are kept, so memory grows with the retained sample count, not with the
    full record payloads.
    """

    system_name: str
    runs: int = 0
    adverse_runs: int = 0
    outcome_counts: dict[RunOutcome, int] = field(
        default_factory=lambda: {outcome: 0 for outcome in RunOutcome}
    )
    frames_with_visible_marker: int = 0
    frames_detected: int = 0
    false_positive_frames: int = 0
    landing_errors: MetricSamples = field(
        default_factory=lambda: MetricSamples("landing-error-m")
    )
    detection_deviations: MetricSamples = field(
        default_factory=lambda: MetricSamples("detection-deviation-m")
    )
    mission_times: MetricSamples = field(
        default_factory=lambda: MetricSamples("mission-time-s")
    )

    def add(self, record: RunRecord) -> None:
        if record.system_name != self.system_name:
            raise ValueError(
                f"record for {record.system_name} fed to summary of {self.system_name}"
            )
        self.runs += 1
        self.outcome_counts[record.outcome] += 1
        if record.adverse_weather:
            self.adverse_runs += 1
        detection = record.detection
        self.frames_with_visible_marker += detection.frames_with_visible_marker
        self.frames_detected += detection.frames_detected
        self.false_positive_frames += detection.false_positive_frames
        self.detection_deviations.extend(detection.deviation_samples)
        if record.landed:
            self.landing_errors.add(record.landing_error)
        self.mission_times.add(record.mission_time)

    def merge(self, other: "SystemSummary") -> None:
        if other.system_name != self.system_name:
            raise ValueError(
                f"summary for {other.system_name} merged into {self.system_name}"
            )
        self.runs += other.runs
        self.adverse_runs += other.adverse_runs
        for outcome, count in other.outcome_counts.items():
            self.outcome_counts[outcome] += count
        self.frames_with_visible_marker += other.frames_with_visible_marker
        self.frames_detected += other.frames_detected
        self.false_positive_frames += other.false_positive_frames
        self.landing_errors.values.extend(other.landing_errors.values)
        self.detection_deviations.values.extend(other.detection_deviations.values)
        self.mission_times.values.extend(other.mission_times.values)

    # ------------------------------------------------------------------ #
    # estimates
    # ------------------------------------------------------------------ #
    def rate_counts(self, metric: str) -> tuple[int, int]:
        """(successes, total) for one of :data:`RATE_METRICS`."""
        if metric == "success":
            return self.outcome_counts[RunOutcome.SUCCESS], self.runs
        if metric == "collision":
            return self.outcome_counts[RunOutcome.COLLISION], self.runs
        if metric == "poor-landing":
            return self.outcome_counts[RunOutcome.POOR_LANDING], self.runs
        if metric == "detection-fn":
            misses = self.frames_with_visible_marker - self.frames_detected
            return misses, self.frames_with_visible_marker
        raise KeyError(f"unknown rate metric {metric!r}; expected one of {list(RATE_METRICS)}")

    def rates(self, confidence: float = DEFAULT_CONFIDENCE) -> dict[str, RateEstimate]:
        """Every rate in :data:`RATE_METRICS` with its Wilson interval."""
        return {
            metric: RateEstimate.from_counts(*self.rate_counts(metric), confidence)
            for metric in RATE_METRICS
        }

    def metric_samples(self, metric: str) -> MetricSamples:
        samples = {
            "landing-error-m": self.landing_errors,
            "detection-deviation-m": self.detection_deviations,
            "mission-time-s": self.mission_times,
        }
        if metric not in samples:
            raise KeyError(
                f"unknown continuous metric {metric!r}; expected one of {list(CONTINUOUS_METRICS)}"
            )
        return samples[metric]

    def metrics(
        self,
        *,
        seed: int = 0,
        confidence: float = DEFAULT_CONFIDENCE,
        resamples: int = DEFAULT_RESAMPLES,
    ) -> dict[str, MetricEstimate]:
        """Every continuous metric with its seeded bootstrap interval."""
        return {
            metric: self.metric_samples(metric).estimate(
                seed=metric_seed(seed, self.system_name, metric),
                confidence=confidence,
                resamples=resamples,
            )
            for metric in CONTINUOUS_METRICS
        }


def summarize_records(records: Iterable[RunRecord]) -> dict[str, SystemSummary]:
    """Fold a record stream into per-system summaries (single pass)."""
    summaries: dict[str, SystemSummary] = {}
    for record in records:
        summary = summaries.get(record.system_name)
        if summary is None:
            summary = summaries[record.system_name] = SystemSummary(record.system_name)
        summary.add(record)
    return summaries
