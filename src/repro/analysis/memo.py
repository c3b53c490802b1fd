"""Disk-memoized analysis reports, keyed by campaign content.

Rendering a summary/slice/coverage report over an unchanged campaign is
pure recomputation: the reports are deterministic functions of the record
files and the analysis parameters.  This module caches the rendered
markdown on disk under a key derived from

* each result file's identity — its campaign **context fingerprint** and
  platform (from the persisted header), plus its **record count** and byte
  size — and
* the analysis parameters (report kind, slice factor, seed, confidence,
  bootstrap resamples),

so a repeated request is a file read, while *any* change — a new shard's
records appended, a different fault plan, other bootstrap parameters —
changes the key and recomputes.  This is the memo behind the campaign
service's ``/report`` / ``/slice`` / ``/coverage`` endpoints (reports are
recomputed incrementally as shards complete, because the record count moves
the key) and behind ``python -m repro.analysis summarize --cache``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.engine import CampaignAnalysis
from repro.analysis.io import resolve_result_files
from repro.analysis.slicing import FACTOR_NAMES
from repro.analysis.stats import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES
from repro.core.metrics import read_result_header
from repro.jsonl import atomic_text, sha16_of_json

#: Bumped when report rendering changes shape, so stale caches from older
#: versions can never be served as current output.
MEMO_SCHEMA_VERSION = 1

#: Directory name used for the default cache location inside a results dir.
CACHE_DIRNAME = ".report-cache"

#: Report kinds :func:`cached_report` can render.
REPORT_KINDS = ("summary", "coverage", "slice")


@dataclass
class CachedReport:
    """A rendered (or cache-served) report plus its cache coordinates."""

    text: str
    key: str
    hit: bool
    path: Path
    records: int


def _file_identity(path: Path) -> dict[str, Any]:
    """The cache-key-relevant identity of one result file.

    Reads the header and counts records (non-blank payload lines) without
    parsing them — a fraction of the cost of re-running the statistics.
    """
    header = read_result_header(path)
    records = 0
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records += 1
    return {
        "file": path.name,
        "system": header.get("system"),
        "campaign": header.get("campaign"),
        "platform": header.get("platform"),
        "schema": header.get("schema"),
        "records": max(0, records - 1),  # minus the header line
        "bytes": path.stat().st_size,
    }


def report_cache_key(
    files: Sequence[Path],
    *,
    kind: str,
    factor: str | None = None,
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
) -> tuple[str, int]:
    """``(cache key, total record count)`` for a set of result files."""
    identities = [_file_identity(path) for path in sorted(files)]
    key = sha16_of_json(
        {
            "memo": MEMO_SCHEMA_VERSION,
            "kind": kind,
            "factor": factor,
            "seed": seed,
            "confidence": confidence,
            "resamples": resamples,
            "files": identities,
        }
    )
    return key, sum(identity["records"] for identity in identities)


def _render(
    source: Any,
    kind: str,
    factor: str | None,
    suites: Iterable[Any],
    seed: int,
    confidence: float,
    resamples: int,
) -> str:
    analysis = CampaignAnalysis(
        source, suites=suites, seed=seed, confidence=confidence, resamples=resamples
    )
    if kind == "summary":
        return analysis.report()
    if kind == "coverage":
        from repro.faults.coverage import render_coverage_report

        return render_coverage_report(analysis.coverage())
    assert kind == "slice" and factor is not None
    return analysis.slice_report(factor)


def cached_report(
    source: str | Path | Sequence[Path],
    *,
    kind: str = "summary",
    factor: str | None = None,
    cache_dir: str | Path | None = None,
    suites: Iterable[Any] = (),
    seed: int = 0,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
) -> CachedReport:
    """Render ``kind`` over ``source``, served from the on-disk memo when fresh.

    Args:
        source: a campaign results directory (dispatch directories resolve
            to their ``merged/`` files) or an explicit sequence of result
            file paths.
        kind: ``"summary"``, ``"coverage"`` or ``"slice"``.
        factor: the slice factor (required when ``kind="slice"``).
        cache_dir: where cache files live; defaults to
            ``<source>/.report-cache`` for directory sources (required for
            explicit file lists).
        suites: extra scenario sources for the slice join (directory sources
            auto-join suite files found inside them).
        seed / confidence / resamples: the analysis parameters; part of the
            cache key.

    Raises ``ValueError`` for an unknown kind/factor, a record-less source,
    or a file-list source without ``cache_dir``.
    """
    if kind not in REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}; expected one of {REPORT_KINDS}")
    if kind == "slice":
        if factor is None:
            raise ValueError("kind='slice' requires a factor")
        if factor not in FACTOR_NAMES:
            raise ValueError(
                f"unknown slice factor {factor!r}; expected one of {sorted(FACTOR_NAMES)}"
            )
    elif factor is not None:
        raise ValueError(f"factor={factor!r} only applies to kind='slice'")

    if isinstance(source, (str, Path)):
        directory = Path(source)
        files = resolve_result_files(directory)
        analysis_source: Any = directory
        if cache_dir is None:
            cache_dir = directory / CACHE_DIRNAME
    else:
        files = [Path(path) for path in source]
        analysis_source = files
        if cache_dir is None:
            raise ValueError("cache_dir is required for explicit file-list sources")

    key, records = report_cache_key(
        files, kind=kind, factor=factor, seed=seed,
        confidence=confidence, resamples=resamples,
    )
    if records == 0:
        raise ValueError(f"no run records found in {[str(f) for f in files]}")

    prefix = kind if factor is None else f"{kind}-{factor}"
    cache_dir = Path(cache_dir)
    path = cache_dir / f"{prefix}-{key}.md"
    try:
        text = path.read_text(encoding="utf-8")
        return CachedReport(text=text, key=key, hit=True, path=path, records=records)
    except FileNotFoundError:
        pass

    text = _render(analysis_source, kind, factor, suites, seed, confidence, resamples)
    with atomic_text(path) as handle:
        handle.write(text)
    # One live entry per report kind: superseded keys (earlier record
    # counts, older parameters) are pruned so a long-running service's
    # cache stays bounded by the number of report kinds, not fetches.
    # The remainder must be exactly a key, so a factor that prefixes
    # another ("map" / "map-style") can never prune its sibling's entries.
    for stale in cache_dir.glob(f"{prefix}-*.md"):
        remainder = stale.name[len(prefix) + 1:]
        if stale.name != path.name and re.fullmatch(r"[0-9a-f]{16}\.md", remainder):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - concurrent prune
                pass
    return CachedReport(text=text, key=key, hit=False, path=path, records=records)
