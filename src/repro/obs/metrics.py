"""Process-local metrics: counters, gauges and histograms with deterministic export.

One registry per process (module-level :data:`METRICS`), fed by the mission
runner, the dispatch worker/queue, the fault-space probe backends and the
campaign service.  Three deliberate constraints keep it fit for this repo:

* **stdlib only, import-free of the rest of the package** — the registry is
  imported from ``repro.core`` and ``repro.dispatch`` alike, so it must sit
  below every other layer (the same rule as :mod:`repro.jsonl`).
* **deterministic export** — :meth:`MetricsRegistry.snapshot` and
  :meth:`MetricsRegistry.dump` sort metric names and label sets, so two
  snapshots of the same state are byte-identical regardless of the order in
  which series were first touched.
* **never on the determinism path** — metrics read wall-clock quantities and
  run counts but are write-only from the instrumented code's point of view:
  nothing in a mission, campaign or merge ever reads a metric back.

The line builders below render the Prometheus exposition format version
0.0.4 (``# HELP`` / ``# TYPE`` comments, ``name{label="value"} value``
samples, ``_bucket``/``_sum``/``_count`` series for histograms);
:func:`repro.obs.aggregate.fleet_render` is the one renderer that calls
them, so the ``/metrics`` endpoint is scrapeable by a stock Prometheus
server.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping

#: Default histogram buckets (seconds): spans request latencies from fast
#: JSON endpoints to multi-second report merges, plus whole missions.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_value(value: float) -> str:
    """Prometheus sample value: integral floats render without a fraction."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_labels(key: _LabelKey) -> str:
    """Render one sorted label key as Prometheus ``{k="v",...}`` text."""
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in key)
    return "{" + inner + "}"


def render_series_lines(
    name: str, type_name: str, help_text: str,
    series: Iterable[tuple[_LabelKey, float]],
) -> list[str]:
    """Exposition lines for one counter/gauge (see
    :func:`repro.obs.aggregate.render_merged`)."""
    lines = [
        f"# HELP {name} {help_text}" if help_text else f"# HELP {name}",
        f"# TYPE {name} {type_name}",
    ]
    for key, value in series:
        lines.append(f"{name}{render_labels(key)} {format_value(value)}")
    return lines


def render_histogram_lines(
    name: str, help_text: str, buckets: tuple[float, ...],
    series: Iterable[tuple[_LabelKey, list[float]]],
) -> list[str]:
    """Exposition lines for one histogram (``_bucket``/``_sum``/``_count``).

    ``series`` pairs each label key with the internal bucket state layout
    ``[per-bound counts..., +Inf count, sum]``.
    """
    lines = [
        f"# HELP {name} {help_text}" if help_text else f"# HELP {name}",
        f"# TYPE {name} histogram",
    ]
    for key, state in series:
        for index, bound in enumerate(buckets):
            bucket_key = key + (("le", format_value(bound)),)
            lines.append(
                f"{name}_bucket{render_labels(bucket_key)} "
                f"{format_value(state[index])}"
            )
        inf_key = key + (("le", "+Inf"),)
        lines.append(f"{name}_bucket{render_labels(inf_key)} {format_value(state[-2])}")
        lines.append(f"{name}_sum{render_labels(key)} {format_value(state[-1])}")
        lines.append(f"{name}_count{render_labels(key)} {format_value(state[-2])}")
    return lines


class _Metric:
    """Base: one named metric holding label-keyed series."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: dict[_LabelKey, float] = {}

    # -- write side ---------------------------------------------------- #
    def _add(self, amount: float, labels: Mapping[str, str]) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def _set(self, value: float, labels: Mapping[str, str]) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    # -- read side ----------------------------------------------------- #
    def value(self, **labels: str) -> float:
        """Current value of one series (0.0 when never touched)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[_LabelKey, float]]:
        with self._lock:
            return sorted(self._series.items())

    def clear(self) -> None:
        """Drop every series of this metric (scrape-time rebuilt gauges)."""
        with self._lock:
            self._series.clear()

    def dump(self) -> dict:
        """Full state for snapshot export (see :mod:`repro.obs.export`)."""
        return {
            "type": self.type_name,
            "help": self.help,
            "series": [[list(map(list, key)), value] for key, value in self.samples()],
        }


class Counter(_Metric):
    """Monotonically increasing count (runs completed, cache hits, ...)."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        self._add(amount, labels)


class Gauge(_Metric):
    """A value that goes both ways (queue depths, lease ages, liveness)."""

    type_name = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._set(float(value), labels)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._add(amount, labels)


class Histogram(_Metric):
    """Cumulative-bucket histogram (request/mission latencies)."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        # Per label set: [bucket counts..., +Inf count, sum].
        self._hist: dict[_LabelKey, list[float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            state = self._hist.get(key)
            if state is None:
                state = self._hist[key] = [0.0] * (len(self.buckets) + 2)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    state[index] += 1
            state[-2] += 1  # +Inf
            state[-1] += value

    def count(self, **labels: str) -> float:
        with self._lock:
            state = self._hist.get(_label_key(labels))
            return state[-2] if state is not None else 0.0

    def sum(self, **labels: str) -> float:
        with self._lock:
            state = self._hist.get(_label_key(labels))
            return state[-1] if state is not None else 0.0

    def samples(self) -> list[tuple[_LabelKey, float]]:  # snapshot() view
        with self._lock:
            return sorted((key, state[-2]) for key, state in self._hist.items())

    def clear(self) -> None:
        with self._lock:
            self._hist.clear()

    def dump(self) -> dict:
        with self._lock:
            items = sorted((key, list(state)) for key, state in self._hist.items())
        return {
            "type": self.type_name,
            "help": self.help,
            "buckets": list(self.buckets),
            "series": [[list(map(list, key)), state] for key, state in items],
        }


class MetricsRegistry:
    """All of one process's metrics; safe for concurrent writers.

    Re-registering an existing name returns the existing metric (modules
    instrument themselves at import or call time without coordinating), but
    re-registering under a different metric type is a programming error and
    raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls: type, name: str, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            metric = cls(name, help_text, threading.Lock(), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge, name, help_text)  # type: ignore[return-value]

    def histogram(
        self, name: str, help_text: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(Histogram, name, help_text, buckets=buckets)  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, dict[str, float]]:
        """Deterministic ``{metric: {rendered-labels: value}}`` state dump.

        Histograms report their per-label observation counts (the ``_count``
        series); the full bucket layout only appears in the Prometheus text.
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            name: {
                render_labels(key) or "{}": value for key, value in metric.samples()
            }
            for name, metric in metrics
        }

    def dump(self) -> dict[str, dict]:
        """Full registry state, JSON-ready (types, help, buckets, series).

        This is the payload :mod:`repro.obs.export` snapshots to disk and
        :mod:`repro.obs.aggregate` merges across processes — unlike
        :meth:`snapshot` it carries complete histogram bucket state, so a
        merge of dumps loses nothing relative to the live registries.
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.dump() for name, metric in metrics}

    def reset(self) -> None:
        """Drop every metric (test isolation only)."""
        with self._lock:
            self._metrics.clear()


#: The process-wide registry every subsystem writes to.
METRICS = MetricsRegistry()
