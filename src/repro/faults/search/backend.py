"""Probe evaluation: fault-space probes as ordinary campaigns.

A *probe* asks one question of the simulator: "fly this scenario subset
with this fault spec pinned at this severity".  Because ``FaultSpec``
severity is part of the spec hash and per-run fault RNG is keyed on
``(scenario fingerprint, repetition, spec hash)``, every probe point is an
independent deterministic stream — evaluating severity 0.43 neither
disturbs nor depends on the stream at 0.5.

:class:`DispatchProbeBackend` answers probes without any execution
machinery of its own: it flies each probe as one
``Campaign(...).dispatch(...)`` chain into a directory under the backend
root, one per distinct ``(spec, severity, scenario subset)``, named by the
dispatch plan's content fingerprint.  That buys the search engine
everything the dispatch fabric already guarantees:

* **any worker topology** — the in-process drain, local worker processes,
  or external ``python -m repro.dispatch work`` processes pointed at a probe
  directory all produce byte-identical merged records;
* **crash-resume** — a killed sweep re-plans into the same fingerprinted
  directories, re-joins the existing plans, and workers resume from
  persisted shard records through the lease protocol;
* **memoized re-probing** — bisection's revisited severities are answered
  from memory, and a fresh backend over a finished probe directory
  re-merges it instead of re-flying it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.config import LandingSystemConfig
from repro.core.metrics import RunRecord
from repro.faults.search.curves import severity_label
from repro.faults.spec import FaultSpec
from repro.world.scenario_suite import ScenarioSuite

ProbeKey = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class Probe:
    """One probe point: a severity-pinned fault spec over a scenario subset."""

    spec: FaultSpec
    scenario_ids: tuple[str, ...]

    @property
    def key(self) -> ProbeKey:
        """Identity for memoization: the spec hash covers severity."""
        return (self.spec.spec_hash(), self.scenario_ids)

    @property
    def label(self) -> str:
        return f"{self.spec.name}@{severity_label(self.spec.severity)}"


@dataclass(frozen=True)
class ProbeOutcome:
    """A probe's merged records (systems in sorted order, suite order within)."""

    probe: Probe
    records: tuple[RunRecord, ...]


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "probe"


class DispatchProbeBackend:
    """Flies each probe as a sharded dispatch under ``root`` (one dir each).

    It indexes the suite's scenarios, selects each probe's sub-suite,
    stamps provenance (:meth:`describe`) and memoizes :meth:`evaluate`.
    ``workers`` local workers drain each probe directory: ``1`` flies it
    in-process, more spawn worker processes (see ``Campaign.dispatch``).
    Planning is idempotent and directories are content-addressed, so
    re-evaluating after a crash resumes exactly where the tree says the
    probe is.
    """

    def __init__(
        self,
        root: str | Path,
        suite: ScenarioSuite,
        systems: Sequence[LandingSystemConfig],
        *,
        repetitions: int | None = None,
        shards: int = 1,
        workers: int = 1,
        lease_seconds: float | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        from repro.dispatch.queue import DEFAULT_LEASE_SECONDS

        self.root = Path(root)
        self.suite = suite
        self.systems = list(systems)
        self.repetitions = repetitions
        self.shards = shards
        self.workers = workers
        self.lease_seconds = (
            DEFAULT_LEASE_SECONDS if lease_seconds is None else lease_seconds
        )
        self.progress = progress
        self._scenarios = {s.scenario_id: s for s in suite.scenarios}
        if len(self._scenarios) != len(suite.scenarios):
            raise ValueError(
                "probe backends address scenarios by id; the suite has duplicates"
            )
        self._memo: dict[ProbeKey, ProbeOutcome] = {}

    def describe(self) -> dict[str, Any]:
        """Provenance stamped into curve headers and reports."""
        return {
            "suite": self.suite.name or "campaign",
            "scenarios": len(self.suite),
            "repetitions": (
                self.suite.repetitions if self.repetitions is None else self.repetitions
            ),
            "systems": ", ".join(system.name for system in self.systems),
        }

    def _sub_suite(self, probe: Probe) -> ScenarioSuite:
        missing = [sid for sid in probe.scenario_ids if sid not in self._scenarios]
        if missing:
            raise ValueError(f"probe names scenarios not in the suite: {missing}")
        wanted = set(probe.scenario_ids)
        return ScenarioSuite(
            # Suite order, whatever order the probe listed ids in: sub-suites
            # (and therefore plan fingerprints) depend only on the subset.
            scenarios=[s for s in self.suite.scenarios if s.scenario_id in wanted],
            repetitions=self.suite.repetitions,
            name=self.suite.name,
        )

    def evaluate(self, probes: Sequence[Probe]) -> list[ProbeOutcome]:
        """Evaluate a probe batch; returns outcomes aligned with ``probes``.

        Already-answered probes (and repeats within the batch) are served
        from memory; the rest are flown in batch order.
        """
        from repro.obs.metrics import METRICS

        cache = METRICS.counter(
            "repro_probe_cache_total", "Fault-probe evaluations by memo outcome."
        )
        fresh: dict[ProbeKey, Probe] = {}
        for probe in probes:
            hit = probe.key in self._memo or probe.key in fresh
            cache.inc(result="hit" if hit else "miss")
            if not hit:
                fresh[probe.key] = probe
        for probe in fresh.values():
            self._memo[probe.key] = self._fly(probe)
        return [self._memo[probe.key] for probe in probes]

    def probe_plan(self, probe: Probe):
        """``(sub_suite, plan)`` for a probe — pure, nothing written."""
        from repro.dispatch.planner import build_plan

        sub_suite = self._sub_suite(probe)
        plan = build_plan(
            sub_suite,
            self.systems,
            shards=self.shards,
            repetitions=self.repetitions,
            faults=[probe.spec],
        )
        return sub_suite, plan

    def probe_dir(self, probe: Probe, fingerprint: str) -> Path:
        """Deterministic probe directory: readable slug + content fingerprint."""
        name = (
            f"{_slug(probe.spec.name)}"
            f"-s{severity_label(probe.spec.severity).replace('.', 'p')}"
            f"-{fingerprint[:12]}"
        )
        return self.root / name

    def _fly(self, probe: Probe) -> ProbeOutcome:
        from repro.bench.campaign import Campaign
        from repro.obs.export import flush_metrics

        sub_suite, plan = self.probe_plan(probe)
        directory = self.probe_dir(probe, plan.fingerprint)
        if self.progress is not None:
            self.progress(f"probe {probe.label}: {directory.name}")
        campaign = (
            Campaign(*self.systems)
            .suite(sub_suite)
            .faults(probe.spec)
            .progress(self.progress)
            # The probe id joins the job and shard ids on every run's
            # metric labels and trace summary.
            .correlate(probe=probe.spec.spec_hash()[:10])
        )
        if self.repetitions is not None:
            campaign.repetitions(self.repetitions)
        results = campaign.dispatch(
            directory,
            shards=self.shards,
            workers=self.workers,
            lease_seconds=self.lease_seconds,
        )
        # Publish the evaluating process's own registry (probe-cache
        # counters, in-process worker counters) next to the probe's shard
        # outputs so a fleet scrape over probe dirs sees it.
        flush_metrics(directory)
        records = tuple(
            record for name in sorted(results) for record in results[name].records
        )
        return ProbeOutcome(probe=probe, records=records)
