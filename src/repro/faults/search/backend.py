"""Probe evaluation backends: fault-space probes as dispatch campaigns.

A *probe* asks one question of the simulator: "fly this scenario subset
with this fault spec pinned at this severity".  Because ``FaultSpec``
severity is part of the spec hash and per-run fault RNG is keyed on
``(scenario fingerprint, repetition, spec hash)``, every probe point is an
independent deterministic stream — evaluating severity 0.43 neither
disturbs nor depends on the stream at 0.5.

The backends here answer probes without inventing any new execution
machinery: each probe batch becomes a standard dispatch plan
(:mod:`repro.dispatch`) under the backend root, one directory per distinct
``(spec, severity, scenario subset)``, named by the plan's content
fingerprint.  That buys the search engine everything the dispatch fabric
already guarantees:

* **any worker topology** — the in-process serial drain, local worker
  processes, external ``python -m repro.dispatch work`` processes pointed
  at a probe directory, or (via :class:`ServiceProbeBackend`) the campaign
  service's supervised pool all produce byte-identical merged records;
* **crash-resume** — a killed sweep re-plans into the same fingerprinted
  directories, re-joins the existing plans, and workers resume from
  persisted shard records through the lease protocol;
* **memoized re-probing** — bisection revisits severities; an already
  merged probe directory is loaded, not re-flown.
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
    directory: Path | None = None


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "probe"


class DispatchProbeBackend:
    """Evaluates probes as dispatch plans under ``root`` (one dir each).

    ``workers`` selects the default drain: ``1`` drains each probe
    directory in-process (debuggable, monkeypatchable), ``>1`` spawns that
    many local worker processes per directory.  ``drain`` overrides the
    drain entirely with ``callable(directory)`` — the hook the search tests
    use to interleave, kill and resume workers deterministically, and the
    hook a cluster harness would use to fan probe directories out to
    external ``dispatch work`` fleets.
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
        platform: str = "desktop",
        mission: Any | None = None,
        lease_seconds: float | None = None,
        progress: Callable[[str], None] | None = None,
        drain: Callable[[Path], None] | None = None,
    ) -> None:
        from repro.dispatch.queue import DEFAULT_LEASE_SECONDS

        self.root = Path(root)
        self.suite = suite
        self.systems = list(systems)
        self.repetitions = repetitions
        self.shards = shards
        self.workers = workers
        self.platform = platform
        self.mission = mission
        self.lease_seconds = (
            DEFAULT_LEASE_SECONDS if lease_seconds is None else lease_seconds
        )
        self.progress = progress
        self.drain = drain
        self._scenarios = {s.scenario_id: s for s in suite.scenarios}
        if len(self._scenarios) != len(suite.scenarios):
            raise ValueError(
                "probe backends address scenarios by id; the suite has duplicates"
            )
        self._memo: dict[ProbeKey, ProbeOutcome] = {}

    # ------------------------------------------------------------------ #
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

    def probe_plan(self, probe: Probe):
        """``(sub_suite, plan)`` for a probe — pure, nothing written."""
        from repro.dispatch.planner import build_plan

        sub_suite = self._sub_suite(probe)
        plan = build_plan(
            sub_suite,
            self.systems,
            shards=self.shards,
            repetitions=self.repetitions,
            mission=self.mission,
            platform=self.platform,
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

    # ------------------------------------------------------------------ #
    def _drain(self, directory: Path, probe: Probe | None = None) -> None:
        import os

        from repro.dispatch.worker import run_local_workers, run_worker
        from repro.obs.export import flush_metrics

        # Correlation: the probe's spec-hash prefix travels by environment
        # (like REPRO_TRACE_DIR) so every worker this drain runs or spawns
        # stamps its runs' metrics and trace summaries with the probe id.
        previous = os.environ.get("REPRO_CORR_PROBE")
        if probe is not None:
            os.environ["REPRO_CORR_PROBE"] = probe.spec.spec_hash()[:10]
        try:
            if self.drain is not None:
                self.drain(directory)
            elif self.workers <= 1:
                run_worker(
                    directory, lease_seconds=self.lease_seconds, progress=self.progress
                )
            else:
                run_local_workers(
                    directory, workers=self.workers, lease_seconds=self.lease_seconds
                )
        finally:
            if probe is not None:
                if previous is None:
                    os.environ.pop("REPRO_CORR_PROBE", None)
                else:
                    os.environ["REPRO_CORR_PROBE"] = previous
        # Publish the evaluating process's own registry (probe-cache
        # counters, any in-process worker counters) next to the probe's
        # shard outputs so a fleet scrape over probe dirs sees it.
        flush_metrics(directory)

    def _load(self, probe: Probe, directory: Path) -> ProbeOutcome:
        from repro.dispatch.merge import ensure_merged, load_merged

        ensure_merged(directory)
        results = load_merged(directory)
        records = tuple(
            record for name in sorted(results) for record in results[name].records
        )
        return ProbeOutcome(probe=probe, records=records, directory=directory)

    def evaluate(self, probes: Sequence[Probe]) -> list[ProbeOutcome]:
        """Evaluate a probe batch; returns outcomes aligned with ``probes``.

        Planning is idempotent and directories are content-addressed, so
        re-evaluating after a crash resumes exactly where the tree says the
        batch is; already-answered probes are served from memory.
        """
        from repro.dispatch.planner import plan_dispatch
        from repro.dispatch.queue import ShardQueue
        from repro.obs.metrics import METRICS

        cache = METRICS.counter(
            "repro_probe_cache_total", "Fault-probe evaluations by memo outcome."
        )
        fresh: list[tuple[Probe, Path]] = []
        seen: set[ProbeKey] = set()
        for probe in probes:
            if probe.key in self._memo or probe.key in seen:
                cache.inc(backend="dispatch", result="hit")
                continue
            cache.inc(backend="dispatch", result="miss")
            seen.add(probe.key)
            sub_suite, plan = self.probe_plan(probe)
            directory = self.probe_dir(probe, plan.fingerprint)
            plan_dispatch(
                directory,
                sub_suite,
                self.systems,
                shards=self.shards,
                repetitions=self.repetitions,
                mission=self.mission,
                platform=self.platform,
                faults=[probe.spec],
            )
            fresh.append((probe, directory))
            if self.progress is not None:
                self.progress(f"probe {probe.label}: {directory.name}")

        for probe, directory in fresh:
            if not ShardQueue(directory).all_done():
                self._drain(directory, probe)
        for probe, directory in fresh:
            self._memo[probe.key] = self._load(probe, directory)
        return [self._memo[probe.key] for probe in probes]


class ServiceProbeBackend:
    """Evaluates probes through a running campaign service (PR 6).

    Each probe is submitted as a standard job with an inline ``suite`` —
    the service plans it, its worker pool (plus any external workers) flies
    it, and the records come back through the existing paginated
    ``/jobs/{id}/records`` endpoint.  Submission is fingerprint-deduplicated
    server-side, so re-evaluating a probe (bisection revisits, resumed
    sweeps) re-joins the existing job instead of re-flying it.
    """

    def __init__(
        self,
        client: Any,
        suite: ScenarioSuite,
        systems: Sequence[str],
        *,
        repetitions: int | None = None,
        shards: int = 1,
        platform: str = "desktop",
        timeout: float = 600.0,
        poll_seconds: float = 0.25,
        page_size: int = 500,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        if isinstance(client, str):
            from repro.service.client import ServiceClient

            client = ServiceClient(client)
        self.client = client
        self.suite = suite
        self.systems = list(systems)
        self.repetitions = repetitions
        self.shards = shards
        self.platform = platform
        self.timeout = timeout
        self.poll_seconds = poll_seconds
        self.page_size = page_size
        self.progress = progress
        self._scenarios = {s.scenario_id: s for s in suite.scenarios}
        if len(self._scenarios) != len(suite.scenarios):
            raise ValueError(
                "probe backends address scenarios by id; the suite has duplicates"
            )
        self._memo: dict[ProbeKey, ProbeOutcome] = {}

    def describe(self) -> dict[str, Any]:
        # Resolve preset keys to display names so curve headers (and hence
        # curve bytes) match what a local backend over the same presets emits.
        from repro.core.config import PRESETS, preset

        names = [
            preset(name).name if name.strip().lower() in PRESETS else name
            for name in self.systems
        ]
        return {
            "suite": self.suite.name or "campaign",
            "scenarios": len(self.suite),
            "repetitions": (
                self.suite.repetitions if self.repetitions is None else self.repetitions
            ),
            "systems": ", ".join(names),
        }

    def _submission(self, probe: Probe) -> dict[str, Any]:
        missing = [sid for sid in probe.scenario_ids if sid not in self._scenarios]
        if missing:
            raise ValueError(f"probe names scenarios not in the suite: {missing}")
        wanted = set(probe.scenario_ids)
        scenarios = [s for s in self.suite.scenarios if s.scenario_id in wanted]
        payload: dict[str, Any] = {
            "suite": {
                "name": self.suite.name,
                "repetitions": self.suite.repetitions,
                "scenarios": [scenario.to_dict() for scenario in scenarios],
            },
            "systems": list(self.systems),
            "shards": self.shards,
            "platform": self.platform,
            "faults": [probe.spec.to_dict()],
        }
        if self.repetitions is not None:
            payload["repetitions"] = self.repetitions
        return payload

    def _fetch_records(self, job_id: str) -> tuple[RunRecord, ...]:
        records: list[RunRecord] = []
        offset = 0
        while True:
            page = self.client.records(job_id, offset=offset, limit=self.page_size)
            records.extend(RunRecord.from_dict(data) for data in page["records"])
            offset += len(page["records"])
            if offset >= page["total"] or not page["records"]:
                return tuple(records)

    def evaluate(self, probes: Sequence[Probe]) -> list[ProbeOutcome]:
        from repro.obs.metrics import METRICS

        cache = METRICS.counter(
            "repro_probe_cache_total", "Fault-probe evaluations by memo outcome."
        )
        submitted: list[tuple[Probe, str]] = []
        seen: set[ProbeKey] = set()
        for probe in probes:
            if probe.key in self._memo or probe.key in seen:
                cache.inc(backend="service", result="hit")
                continue
            cache.inc(backend="service", result="miss")
            seen.add(probe.key)
            response = self.client.submit(self._submission(probe))
            submitted.append((probe, response["id"]))
            if self.progress is not None:
                self.progress(f"probe {probe.label}: job {response['id']}")
        for probe, job_id in submitted:
            status = self.client.wait(
                job_id, timeout=self.timeout, poll_seconds=self.poll_seconds
            )
            if status["state"] != "done":
                raise RuntimeError(
                    f"probe {probe.label} (job {job_id}) ended {status['state']!r}"
                )
            self._memo[probe.key] = ProbeOutcome(
                probe=probe, records=self._fetch_records(job_id)
            )
        return [self._memo[probe.key] for probe in probes]
