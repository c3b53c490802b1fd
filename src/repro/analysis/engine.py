"""The analysis session object: one source, every question.

:class:`CampaignAnalysis` binds a record source (live campaign results or
persisted JSONL) to the analysis parameters (seed, confidence, bootstrap
size) and answers summarise / slice / compare / gate questions against it.
It is both the return value of the fluent ``Campaign(...).analyze()``
terminal and the engine behind ``python -m repro.analysis``.

Sources are re-iterated per question (summaries are computed once and
cached), so persisted campaigns of any size stream instead of loading.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.analysis.compare import (
    DEFAULT_ALPHA,
    CampaignComparison,
    PaperDelta,
    compare_summaries,
    compare_to_paper,
)
from repro.analysis.io import RecordContext, discover_result_files, iter_contexts
from repro.analysis.report import render_slice_report, render_summary_report
from repro.analysis.slicing import ScenarioIndex, slice_contexts
from repro.analysis.stats import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    SystemSummary,
    summarize_records,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.coverage import CoverageReport


class CampaignAnalysis:
    """Analytics over one campaign's records.

    Args:
        source: anything :func:`repro.analysis.io.iter_contexts` accepts —
            the dict of :class:`CampaignResult` returned by ``Campaign.run``,
            a JSONL file, or a directory of persisted results.
        suites: scenario sources (suites, specs, preset names or suite JSONL
            paths) used to join records to their scenario factors for
            slicing.  When ``source`` is a directory, any suite JSONL files
            found inside it are joined automatically.
        seed: base seed for every bootstrap draw (reports are byte-stable
            for a fixed seed).
        confidence: confidence level for all intervals.
        resamples: bootstrap resample count.
    """

    def __init__(
        self,
        source: Any,
        *,
        suites: Iterable[Any] = (),
        seed: int = 0,
        confidence: float = DEFAULT_CONFIDENCE,
        resamples: int = DEFAULT_RESAMPLES,
    ) -> None:
        if isinstance(source, Iterator):
            # Every question (summaries, slices, comparisons) streams the
            # source afresh; a one-shot iterator would silently come up
            # empty on the second pass, so pin its items now.
            source = list(source)
        self._source = source
        self.seed = seed
        self.confidence = confidence
        self.resamples = resamples
        self._summaries: dict[str, SystemSummary] | None = None
        self._coverage: "CoverageReport | None" = None
        self._index = ScenarioIndex.from_sources(suites) if suites else ScenarioIndex()
        if isinstance(source, (str, Path)) and Path(source).is_dir():
            _, suite_files = discover_result_files(source)
            for path in suite_files:
                self._index.add_source(path)

    # ------------------------------------------------------------------ #
    def contexts(self) -> Iterable[RecordContext]:
        """A fresh streaming pass over the source's records."""
        return iter_contexts(self._source)

    def summaries(self) -> dict[str, SystemSummary]:
        """Per-system streaming summaries (computed once, then cached).

        Fault-coverage counters accumulate in the same pass, so a summary
        report over a persisted campaign reads each file exactly once.
        """
        if self._summaries is None:
            from repro.faults.coverage import CoverageReport

            coverage = CoverageReport()

            def stream():
                for context in self.contexts():
                    coverage.add(context.record)
                    yield context.record

            self._summaries = summarize_records(stream())
            self._coverage = coverage
        return self._summaries

    def paper_deltas(self) -> list[PaperDelta]:
        """Reproduced rates next to the paper's Table I values."""
        return compare_to_paper(self.summaries(), confidence=self.confidence)

    def coverage(self) -> "CoverageReport":
        """Fault-coverage accounting over the source's records.

        See :mod:`repro.faults.coverage`; meaningful when the campaign was
        flown with a fault axis (``Campaign.faults(...)``), and free —
        piggybacked on the :meth:`summaries` pass — when it was not.
        """
        if self._coverage is None:
            self.summaries()
        assert self._coverage is not None
        return self._coverage

    def report(self, title: str = "Campaign analytics summary") -> str:
        """The deterministic ``summarize`` markdown report.

        Campaigns flown with fault injection additionally get a
        fault-coverage section (per-fault detection/absorption accounting
        and the failure-mode breakdown).
        """
        rendered = render_summary_report(
            self.summaries(),
            seed=self.seed,
            confidence=self.confidence,
            resamples=self.resamples,
            paper_deltas=self.paper_deltas(),
            title=title,
        )
        coverage = self.coverage()
        if coverage.fault_runs:
            from repro.faults.coverage import render_coverage_section

            rendered = "\n".join(
                [rendered, "## Fault injection", "", render_coverage_section(coverage), ""]
            )
        return rendered

    # ------------------------------------------------------------------ #
    def slice(self, factor: str) -> dict[str, dict[str, SystemSummary]]:
        """Group records by a named factor (see ``FACTOR_NAMES``)."""
        return slice_contexts(self.contexts(), factor, self._index)

    def slice_report(self, factor: str) -> str:
        """The deterministic ``slice`` markdown report."""
        return render_slice_report(
            factor, self.slice(factor), confidence=self.confidence
        )

    # ------------------------------------------------------------------ #
    def compare_to(
        self,
        baseline: "CampaignAnalysis | Any",
        *,
        alpha: float = DEFAULT_ALPHA,
        baseline_label: str | None = None,
        current_label: str = "current",
    ) -> CampaignComparison:
        """Diff this campaign (current) against a baseline one."""
        if not isinstance(baseline, CampaignAnalysis):
            label = baseline_label or (
                str(baseline) if isinstance(baseline, (str, Path)) else "baseline"
            )
            baseline = CampaignAnalysis(
                baseline,
                seed=self.seed,
                confidence=self.confidence,
                resamples=self.resamples,
            )
        else:
            label = baseline_label or "baseline"
        return compare_summaries(
            baseline.summaries(),
            self.summaries(),
            alpha=alpha,
            confidence=self.confidence,
            resamples=self.resamples,
            seed=self.seed,
            baseline_label=label,
            current_label=current_label,
        )
