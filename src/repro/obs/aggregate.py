"""Merge per-process metric snapshots into one deterministic fleet view.

The read side of :mod:`repro.obs.export`: collect every snapshot under one
or more dispatch directories, deduplicate per process, merge by metric
type, and render Prometheus text that is **byte-stable over any snapshot
arrival order** — the property that lets the service's ``GET /metrics``
(and tests, and ``cmp``-based CI jobs) treat the merged exposition as a
deterministic function of fleet state.

Merge semantics, per metric type:

* **counters** sum across processes, per label set, with the addition
  performed in sorted-process order so float accumulation is reproducible;
* **histograms** merge element-wise — per label set, the per-bound bucket
  counts, the ``+Inf`` count and the sum each add up — so fleet quantile
  estimates are exactly what one process observing every event would have
  exported;
* **gauges** are last-writer-wins by ``(seq, process)`` flush order:
  point-in-time values (queue depths, thread liveness) must not add up,
  and the deterministic total order keeps ties stable.

Deduplication rules:

* one process appearing in several directories (a worker that drained
  multiple probe dirs) or several times in one (historical flushes) keeps
  only its highest-``seq`` snapshot;
* the caller's own *live* registry, when provided, supersedes every
  snapshot this process previously flushed — the scrape always reflects
  the serving process's current state, never a stale disk copy of it;
* unparseable or wrong-kind files are skipped: the exporter's atomic
  replace means those are either foreign files or torn temp leftovers,
  and a fleet view must not go down because one worker died mid-write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.metrics import (
    METRICS,
    MetricsRegistry,
    render_histogram_lines,
    render_series_lines,
)

from repro.obs.export import (
    METRICS_DIRNAME,
    SNAPSHOT_KIND,
    SNAPSHOT_SCHEMA_VERSION,
    process_exporter,
)

_LabelKey = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Snapshot:
    """One process's registry state at one flush (or the live registry)."""

    process: str
    seq: int
    metrics: dict[str, dict[str, Any]]
    live: bool = False
    path: Path | None = field(default=None, compare=False)

    @property
    def write_order(self) -> tuple[int, int, str]:
        """Total order for gauge last-writer-wins (live always newest)."""
        return (1 if self.live else 0, self.seq, self.process)


def snapshot_paths(directories: Iterable[str | Path]) -> list[Path]:
    """Every snapshot file under the given dispatch directories, sorted."""
    paths: set[Path] = set()
    for directory in directories:
        metrics_dir = Path(directory) / METRICS_DIRNAME
        if metrics_dir.is_dir():
            paths.update(metrics_dir.glob("*.json"))
    return sorted(paths)


def load_snapshot(path: Path) -> Snapshot | None:
    """Parse one snapshot file; ``None`` for torn/foreign/unversioned files."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("kind") != SNAPSHOT_KIND:
        return None
    if data.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        return None
    process = data.get("process")
    metrics = data.get("metrics")
    if not isinstance(process, str) or not isinstance(metrics, dict):
        return None
    try:
        seq = int(data.get("seq", 0))
    except (TypeError, ValueError):
        return None
    return Snapshot(process=process, seq=seq, metrics=metrics, path=path)


def load_snapshots(directories: Iterable[str | Path]) -> list[Snapshot]:
    snapshots = [load_snapshot(path) for path in snapshot_paths(directories)]
    return [snapshot for snapshot in snapshots if snapshot is not None]


def dedupe_snapshots(
    snapshots: Iterable[Snapshot], *, live_process: str | None = None
) -> list[Snapshot]:
    """Highest-``seq`` snapshot per process, in sorted process order.

    Snapshots from ``live_process`` are dropped entirely — the caller is
    about to contribute that process's live registry instead.
    """
    best: dict[str, Snapshot] = {}
    for snapshot in snapshots:
        if snapshot.process == live_process:
            continue
        kept = best.get(snapshot.process)
        if kept is None or snapshot.seq > kept.seq:
            best[snapshot.process] = snapshot
    return [best[process] for process in sorted(best)]


def _label_key(raw: Any) -> _LabelKey | None:
    try:
        key = tuple((str(name), str(value)) for name, value in raw)
    except (TypeError, ValueError):
        return None
    return tuple(sorted(key))


def merge_snapshots(snapshots: Sequence[Snapshot]) -> dict[str, dict[str, Any]]:
    """Merge deduplicated snapshots into one registry-dump structure.

    The result has the shape of :meth:`MetricsRegistry.dump`, so
    :func:`render_merged` renders one process and a fleet alike.
    """
    ordered = sorted(snapshots, key=lambda snapshot: (snapshot.process, snapshot.seq))
    merged: dict[str, dict[str, Any]] = {}
    #: gauge label key -> write order of the snapshot that set its value.
    gauge_writers: dict[tuple[str, _LabelKey], tuple[int, int, str]] = {}
    for snapshot in ordered:
        for name in sorted(snapshot.metrics):
            data = snapshot.metrics[name]
            if not isinstance(data, dict):
                continue
            type_name = data.get("type")
            series = data.get("series")
            if type_name not in ("counter", "gauge", "histogram"):
                continue
            if not isinstance(series, list):
                continue
            target = merged.get(name)
            if target is None:
                target = merged[name] = {
                    "type": type_name,
                    "help": str(data.get("help", "")),
                    "series": {},
                }
                if type_name == "histogram":
                    target["buckets"] = tuple(
                        float(bound) for bound in data.get("buckets", ())
                    )
            elif target["type"] != type_name:
                continue  # conflicting registration; first process wins
            values: dict[_LabelKey, Any] = target["series"]
            for entry in series:
                if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                    continue
                key = _label_key(entry[0])
                if key is None:
                    continue
                if type_name == "counter":
                    values[key] = values.get(key, 0.0) + float(entry[1])
                elif type_name == "gauge":
                    writer = gauge_writers.get((name, key))
                    if writer is None or snapshot.write_order > writer:
                        values[key] = float(entry[1])
                        gauge_writers[(name, key)] = snapshot.write_order
                else:  # histogram: element-wise bucket/count/sum addition
                    state = entry[1]
                    expected = len(target["buckets"]) + 2
                    if not isinstance(state, list) or len(state) != expected:
                        continue
                    current = values.get(key)
                    if current is None:
                        values[key] = [float(value) for value in state]
                    else:
                        for index, value in enumerate(state):
                            current[index] += float(value)
    return merged


def render_merged(merged: dict[str, dict[str, Any]]) -> str:
    """Merged state as Prometheus text 0.0.4 (sorted, hence byte-stable)."""
    lines: list[str] = []
    for name in sorted(merged):
        data = merged[name]
        series = sorted(data["series"].items())
        if data["type"] == "histogram":
            lines.extend(
                render_histogram_lines(name, data["help"], data["buckets"], series)
            )
        else:
            lines.extend(
                render_series_lines(name, data["type"], data["help"], series)
            )
    return "\n".join(lines) + "\n" if lines else ""


def fleet_render(
    directories: Iterable[str | Path],
    *,
    registry: MetricsRegistry | None = METRICS,
) -> str:
    """One Prometheus exposition over this process plus the on-disk fleet.

    ``directories`` are dispatch directories whose ``obs/metrics/``
    snapshots should join the view; ``registry`` (default: the process
    registry) contributes this process's live state, superseding any
    snapshots it flushed earlier.  With no snapshot directories this is
    the single-process exposition: ``fleet_render([], registry=registry)``.
    """
    live_process = process_exporter().process if registry is not None else None
    snapshots = dedupe_snapshots(
        load_snapshots(directories), live_process=live_process
    )
    if registry is not None:
        snapshots = snapshots + [
            Snapshot(process=live_process, seq=0, metrics=registry.dump(), live=True)
        ]
    return render_merged(merge_snapshots(snapshots))
