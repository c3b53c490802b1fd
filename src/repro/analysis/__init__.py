"""Campaign analytics: streaming statistics over run-record streams.

The layer that turns persisted campaign results (or live
``Campaign.run()`` output) into statistically defensible answers:

* :mod:`repro.analysis.stats` — Wilson intervals, seeded bootstrap CIs, the
  two-proportion z-test, and the streaming per-system accumulator;
* :mod:`repro.analysis.io` — incremental record streams over JSONL files,
  directories or in-memory results;
* :mod:`repro.analysis.slicing` — factor-based grouping (stress axis, wind
  band, lighting, obstacle density, map, platform) via the scenario join;
* :mod:`repro.analysis.compare` — campaign diffing, paper comparison and
  regression detection;
* :mod:`repro.analysis.report` — deterministic, byte-stable markdown;
* :mod:`repro.analysis.engine` — :class:`CampaignAnalysis`, the session
  object behind both ``Campaign(...).analyze()`` and the
  ``python -m repro.analysis`` CLI (``summarize`` / ``slice`` / ``compare``
  / ``gate``).
"""

from repro.analysis.compare import (
    CampaignComparison,
    MetricDelta,
    PaperDelta,
    RateDelta,
    compare_summaries,
    compare_to_paper,
)
from repro.analysis.engine import CampaignAnalysis
from repro.analysis.io import (
    RecordContext,
    iter_contexts,
    iter_records,
    resolve_result_files,
)
from repro.analysis.memo import CachedReport, cached_report, report_cache_key
from repro.analysis.report import (
    render_comparison_report,
    render_slice_report,
    render_summary_report,
)
from repro.analysis.slicing import (
    FACTOR_NAMES,
    FACTORS,
    ScenarioIndex,
)
from repro.analysis.stats import (
    MetricEstimate,
    RateEstimate,
    SystemSummary,
    bootstrap_mean_ci,
    summarize_records,
    two_proportion_test,
    wilson_interval,
)

__all__ = [
    "CachedReport",
    "CampaignAnalysis",
    "CampaignComparison",
    "FACTORS",
    "FACTOR_NAMES",
    "MetricDelta",
    "MetricEstimate",
    "PaperDelta",
    "RateDelta",
    "RateEstimate",
    "RecordContext",
    "ScenarioIndex",
    "SystemSummary",
    "bootstrap_mean_ci",
    "cached_report",
    "compare_summaries",
    "compare_to_paper",
    "iter_contexts",
    "iter_records",
    "render_comparison_report",
    "render_slice_report",
    "render_summary_report",
    "report_cache_key",
    "resolve_result_files",
    "summarize_records",
    "two_proportion_test",
    "wilson_interval",
]
