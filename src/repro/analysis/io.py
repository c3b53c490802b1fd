"""Streaming access to campaign results, live or persisted.

The analytics engine never materialises a whole campaign: persisted JSONL
files are read one line at a time and each :class:`RunRecord` is handed to
the streaming accumulators (:mod:`repro.analysis.stats`) as soon as it is
parsed, then dropped.  The same iterator protocol wraps live
:class:`CampaignResult` objects, so every downstream consumer — summaries,
slicing, diffing, reports — is written once against
:func:`iter_contexts`.

A *source* is any of:

* a ``CampaignResult`` or a mapping of them (what ``Campaign.run`` returns);
* a path to one campaign-result ``.jsonl`` file;
* a path to a directory, whose campaign-result ``*.jsonl`` files are read in
  sorted order (files of other kinds — e.g. an exported scenario suite living
  next to the results, as the CI smoke job lays them out — are skipped);
* an iterable mixing any of the above.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.core.metrics import (
    RESULT_KIND,
    CampaignResult,
    RunRecord,
    iter_result_records,
    read_result_header,
)
from repro.jsonl import read_frame_header
from repro.world.scenario import Scenario

#: ``kind`` of the scenario-suite files a results directory may also hold.
SUITE_KIND = "scenario-suite"

#: Sources accepted by :func:`iter_contexts`.
RecordSource = Any


@dataclass
class RecordContext:
    """One run record plus the join context the record itself cannot carry.

    ``platform`` comes from the persisted file's header (or ``""`` for live
    results); ``scenario`` is joined lazily by the slicing layer.
    """

    record: RunRecord
    platform: str = ""
    source: str = ""
    scenario: Scenario | None = None


def discover_result_files(directory: str | Path) -> tuple[list[Path], list[Path]]:
    """Split a directory's ``*.jsonl`` files into (result files, suite files).

    Files of any other kind (or unreadable ones) are skipped with a warning;
    both lists are sorted by name so downstream iteration order — and with it
    every report byte — is stable.
    """
    directory = Path(directory)
    results: list[Path] = []
    suites: list[Path] = []
    for path in sorted(directory.glob("*.jsonl")):
        try:
            kind = read_frame_header(path).get("kind")
        except (ValueError, OSError) as error:
            warnings.warn(
                f"skipping unreadable JSONL file {path}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        if kind == RESULT_KIND:
            results.append(path)
        elif kind == SUITE_KIND:
            suites.append(path)
        else:
            warnings.warn(
                f"skipping {path}: unknown JSONL kind {kind!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return results, suites


def resolve_result_files(directory: str | Path) -> list[Path]:
    """The result files a directory source resolves to, in streaming order.

    Owns the dispatch-directory fallback: a directory with no result files
    of its own but a populated ``merged/`` subdirectory (the
    :mod:`repro.dispatch` layout) resolves to the merged files, which is
    what lets ``repro.analysis summarize <dispatch-dir>`` work directly.
    Shared by the streaming iterator below and the report memo cache
    (:mod:`repro.analysis.memo`), so the two agree on what "the campaign's
    files" means.  Raises ``ValueError`` when nothing resolves.
    """
    directory = Path(directory)
    result_files, _ = discover_result_files(directory)
    if not result_files:
        merged = directory / "merged"
        if merged.is_dir():
            result_files = discover_result_files(merged)[0]
        if not result_files:
            raise ValueError(f"{directory} contains no {RESULT_KIND} JSONL files")
    return result_files


def _iter_path_contexts(path: Path) -> Iterator[RecordContext]:
    if path.is_dir():
        for file in resolve_result_files(path):
            yield from _iter_path_contexts(file)
        return
    header = read_result_header(path)
    platform = str(header.get("platform", "") or "")
    for record in iter_result_records(path, validated=True):
        yield RecordContext(record=record, platform=platform, source=str(path))


def iter_contexts(source: RecordSource) -> Iterator[RecordContext]:
    """Stream :class:`RecordContext` objects from any supported source."""
    if isinstance(source, CampaignResult):
        for record in source.records:
            yield RecordContext(record=record, source=source.system_name)
        return
    if isinstance(source, RunRecord):
        yield RecordContext(record=source)
        return
    if isinstance(source, Mapping):
        for key in source:
            yield from iter_contexts(source[key])
        return
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise FileNotFoundError(f"campaign results not found: {path}")
        yield from _iter_path_contexts(path)
        return
    if isinstance(source, Iterable):
        for item in source:
            yield from iter_contexts(item)
        return
    raise TypeError(
        f"unsupported record source {type(source).__name__}; expected a "
        f"CampaignResult, a mapping of them, a JSONL file/directory path, or "
        f"an iterable of those"
    )


def iter_records(source: RecordSource) -> Iterator[RunRecord]:
    """Like :func:`iter_contexts`, yielding the bare records."""
    for context in iter_contexts(source):
        yield context.record
