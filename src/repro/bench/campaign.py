"""Campaign runner: scenario suites x system compositions x platforms.

The full paper campaign is 100 scenarios x 3 repetitions per system; in this
pure-Python reproduction each run takes seconds of wall clock, so a campaign
given no suite and no size flies :data:`DEFAULT_SCENARIOS` x
:data:`DEFAULT_REPETITIONS` of the evaluation suite (``.scenarios(100)
.repetitions(3)`` is the paper-scale campaign).  A :class:`Campaign` runs
serially unless ``.parallel()`` is called.

The primary API is the fluent :class:`Campaign` builder::

    from repro import Campaign, mls_v1, mls_v3

    results = (
        Campaign()
        .systems(mls_v1(), mls_v3())
        .scenarios(6)
        .repetitions(2)
        .platform("desktop")
        .parallel(4)
        .run()
    )

Every mission in a campaign is independent (own world, own seeds), so the
run grid is embarrassingly parallel: ``.parallel(n)`` fans the jobs out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping aggregation in
submission order, which makes the parallel results bit-identical to the
serial ones.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict as dataclasses_asdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.core.config import LandingSystemConfig, SystemGeneration, config_for, mls_v1, mls_v2, mls_v3, preset

if TYPE_CHECKING:
    from repro.analysis.engine import CampaignAnalysis
from repro.core.metrics import (
    RESULT_SCHEMA_VERSION,
    CampaignResult,
    RunRecord,
    append_record_jsonl,
    read_campaign_jsonl,
    write_campaign_jsonl,
)
from repro.core.mission import MissionConfig, MissionRunner
from repro.core.platform import DesktopPlatform, ExecutionPlatform
from repro.core.registry import DETECTOR, REGISTRY
from repro.faults.spec import FaultSpec, ensure_unique_names, resolve_faults
from repro.hil.jetson import JetsonNanoPlatform
from repro.jsonl import file_stem, sha16_of_json
from repro.perception.neural.training import load_pretrained_detector_net
from repro.realworld.field_test import FieldPlatform
from repro.world.scenario import Scenario
from repro.world.scenario_gen import PRESET_NAMES, SuiteSpec, generate_suite
from repro.world.scenario_suite import ScenarioSuite

#: The size of a campaign given neither a suite nor ``.scenarios()`` /
#: ``.repetitions()``: this many evaluation-suite scenarios, each flown
#: this many times.
DEFAULT_SCENARIOS = 6
DEFAULT_REPETITIONS = 1


#: The platforms ``Campaign.platform(...)`` accepts, by key, each built from
#: the run's scenario seed.  Campaigns, their jobs, result headers and
#: dispatch plans carry only the key, so every execution mode (worker
#: processes, other machines) resolves it the same way.
PLATFORM_FACTORIES: dict[str, Callable[[int], ExecutionPlatform]] = {
    "desktop": lambda seed: DesktopPlatform(),
    # Every HIL record so far was flown with the Nano's jitter on seed 0, so
    # it ignores the scenario seed to keep them reproducible.
    "jetson-nano": lambda seed: JetsonNanoPlatform(),
    "field": FieldPlatform,
}


# ---------------------------------------------------------------------- #
# worker-side execution
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignJob:
    """One independent mission run of a campaign (picklable)."""

    index: int
    system: LandingSystemConfig
    scenario: Scenario
    repetition: int
    mission: MissionConfig
    #: A :data:`PLATFORM_FACTORIES` key.
    platform: str = "desktop"
    needs_network: bool = True
    #: Fault specs to inject into this run (see :mod:`repro.faults`); plain
    #: frozen dataclasses, so jobs stay picklable for ``.parallel()``.
    faults: tuple[FaultSpec, ...] = ()
    #: Directory receiving flight-trace summaries (``Campaign.trace(...)``,
    #: ``python -m repro.dispatch work --trace``), or ``None``.  Strictly a
    #: side channel: it is excluded from every content fingerprint.
    trace_dir: str | None = None
    #: Correlation context (sorted ``(key, value)`` pairs) identifying where
    #: this run came from: the ids given to ``Campaign.correlate`` (a fault
    #: probe's ``probe``, say), plus ``job`` (plan fingerprint prefix) and
    #: ``shard`` when a dispatch worker flies it.  Like tracing it is a pure
    #: side channel: excluded from every content fingerprint, attached only
    #: to metric label sets and trace summaries.
    correlation: tuple[tuple[str, str], ...] = ()


_worker_network = None


def _shared_network():
    """The per-process detector network (trained once, disk-cached)."""
    global _worker_network
    if _worker_network is None:
        _worker_network = load_pretrained_detector_net()
    return _worker_network


def _execute_job(job: CampaignJob) -> RunRecord:
    """Run one campaign job; used both in-process and in worker processes."""
    from repro.core.registry import ComponentError
    from repro.faults.harness import FaultHarness
    from repro.obs.metrics import METRICS

    network = _shared_network() if job.needs_network else None
    # Built per run from content hashes only, so every execution mode
    # (serial / parallel / dispatched shard) injects identically.
    harness = FaultHarness(
        job.faults,
        scenario_fingerprint=job.scenario.fingerprint(),
        repetition=job.repetition,
    )
    try:
        runner = MissionRunner(
            job.scenario,
            job.system,
            mission_config=job.mission,
            platform=PLATFORM_FACTORIES[job.platform](job.scenario.seed),
            detector_network=network,
            fault_harness=harness,
        )
    except ComponentError as error:
        raise ComponentError(
            f"{error} (if this component is registered at runtime, note that "
            f"spawn/forkserver worker processes only see components registered "
            f"at module import time)"
        ) from error
    record = runner.run()
    record.repetition = job.repetition
    # Observability side channel: per-run metrics and, when traced, the
    # run's flight-recorder summary.  Nothing below reads back into the
    # record, so the persisted bytes are identical with or without it.
    correlation = dict(job.correlation)
    counters = runner.recorder.counters
    METRICS.counter(
        "repro_runs_total", "Completed mission runs by system and outcome."
    ).inc(system=job.system.name, outcome=record.outcome.value, **correlation)
    if record.failure_mode:
        METRICS.counter(
            "repro_failure_mode_total", "Runs by classified failure mode."
        ).inc(system=job.system.name, mode=record.failure_mode)
    METRICS.counter(
        "repro_frames_total", "Camera decision ticks by frame handling."
    ).inc(counters["frames-rendered"], system=job.system.name, mode="rendered")
    METRICS.counter(
        "repro_depth_captures_total", "Depth ticks by capture handling."
    ).inc(counters["depth-captures"], system=job.system.name, mode="captured")
    METRICS.histogram(
        "repro_mission_seconds", "Simulated mission duration per run."
    ).observe(record.mission_time, system=job.system.name)
    if job.trace_dir:
        from repro.obs.trace import append_trace_summary

        append_trace_summary(
            job.trace_dir,
            runner.recorder,
            system=job.system.name,
            scenario_id=job.scenario.scenario_id,
            repetition=job.repetition,
            correlation=correlation or None,
        )
    return record


def campaign_result_filename(system_name: str) -> str:
    """The JSONL filename ``Campaign.out`` persists a system's records under.

    Shared with :mod:`repro.dispatch.merge` so merged shard outputs land on
    exactly the filenames a single-process campaign would have written.
    """
    return file_stem(system_name) + ".jsonl"


def campaign_context_fingerprint(
    mission: MissionConfig,
    platform: str,
    faults: Sequence[FaultSpec] = (),
) -> str:
    """Identity of a run *context* (mission config + platform + faults).

    Stored in result headers so resuming — or merging shards — against
    results flown with different mission timings, on another platform or
    under a different fault plan is refused instead of silently reported.
    The ``faults`` key is only included when faults are declared, so
    fingerprints of fault-free campaigns are unchanged from earlier
    versions (existing persisted results stay resumable).
    """
    payload: dict[str, Any] = {
        "mission": dataclasses_asdict(mission),
        "platform": platform,
    }
    if faults:
        payload["faults"] = [spec.to_dict() for spec in faults]
    return sha16_of_json(payload)


def _system_needs_network(config: LandingSystemConfig) -> bool:
    try:
        spec = REGISTRY.spec(DETECTOR, config.detector)
    except Exception:
        return True  # unknown custom detector: be conservative, load it
    return bool(spec.metadata.get("needs_network", False))


# ---------------------------------------------------------------------- #
# the fluent campaign builder
# ---------------------------------------------------------------------- #
class Campaign:
    """Fluent builder for (possibly parallel) evaluation campaigns.

    Each setter returns ``self`` so campaigns read as one chain; ``run()``
    executes the grid and returns ``{system name: CampaignResult}``.
    Results are aggregated in job-submission order regardless of worker
    completion order, so ``.parallel(n)`` is outcome-identical to serial.
    """

    def __init__(self, *system_configs: LandingSystemConfig) -> None:
        self._systems: list[LandingSystemConfig] = []
        if system_configs:
            self.systems(*system_configs)
        self._suite: ScenarioSuite | SuiteSpec | str | None = None
        self._faults: tuple[FaultSpec, ...] = ()
        self._scenario_count: int | None = None
        self._repetitions: int | None = None
        self._mission: MissionConfig = MissionConfig()
        self._platform: str = "desktop"
        self._workers: int = 1
        self._seed: int | None = None
        self._progress: Callable[[str], None] | None = None
        self._out: Path | None = None
        self._trace: Path | None = None
        self._correlation: tuple[tuple[str, str], ...] = ()

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def systems(self, *configs: Any) -> "Campaign":
        """Add systems: configs, ``SystemGeneration`` members or preset names."""
        for config in configs:
            if isinstance(config, LandingSystemConfig):
                self._systems.append(config)
            elif isinstance(config, SystemGeneration):
                self._systems.append(config_for(config))
            elif isinstance(config, str):
                self._systems.append(preset(config))
            elif isinstance(config, Iterable):
                self.systems(*config)
            else:
                raise TypeError(
                    f"systems() accepts LandingSystemConfig / SystemGeneration / "
                    f"preset names, got {type(config).__name__}"
                )
        return self

    def suite(self, suite: ScenarioSuite | SuiteSpec | str) -> "Campaign":
        """Use an explicit scenario suite (overrides ``scenarios()``).

        Accepts a :class:`ScenarioSuite`, a declarative
        :class:`~repro.world.scenario_gen.SuiteSpec`, or a preset name such
        as ``"paper"`` / ``"stress"`` / ``"smoke"``.  Specs and preset names
        are generated at run time so a later ``.seed(...)`` call still
        applies to them (generation is deterministic, so the grid is fixed
        either way).
        """
        if isinstance(suite, str):
            key = suite.strip().lower()
            if key not in PRESET_NAMES:
                raise ValueError(
                    f"unknown suite preset {suite!r}; expected one of {sorted(PRESET_NAMES)}"
                )
            self._suite = key
        elif isinstance(suite, (ScenarioSuite, SuiteSpec)):
            self._suite = suite
        else:
            raise TypeError(
                f"suite() accepts ScenarioSuite / SuiteSpec / preset name, "
                f"got {type(suite).__name__}"
            )
        return self

    def faults(self, *sources: Any) -> "Campaign":
        """Inject faults into every run of the campaign (the fault axis).

        Accepts :class:`~repro.faults.FaultSpec` objects, fault-preset names
        (``"sensor"``, ``"perception"``, ``"full"``, ...), fault-plan JSON
        paths, or iterables mixing them::

            results = (
                Campaign(mls_v3())
                .suite("stress")
                .faults("perception", FaultSpec(target="vehicle", mode="ekf-reset"))
                .parallel(4)
                .run()
            )

        Calling ``.faults()`` with no arguments clears the fault axis.
        Injection is deterministic per (scenario, repetition, spec): serial,
        parallel and dispatched executions produce byte-identical persisted
        records.
        """
        specs: list[FaultSpec] = []
        for source in sources:
            specs.extend(resolve_faults(source))
        self._faults = ensure_unique_names(specs)
        return self

    def out(self, directory: str | Path | None) -> "Campaign":
        """Persist per-run results under ``directory`` (one JSONL per system).

        Every completed run is appended to ``<directory>/<system>.jsonl``
        immediately, so a killed campaign loses at most the in-flight
        missions — and re-running the same campaign with the same ``out``
        directory *resumes*: runs whose ``(scenario_id, repetition)`` already
        appear in the file are loaded instead of re-executed.
        """
        self._out = Path(directory) if directory is not None else None
        return self

    def trace(self, directory: str | Path | None) -> "Campaign":
        """Stream per-run flight-trace summaries under ``directory``.

        Every run appends one per-phase timing summary to
        ``<directory>/<system>.trace.jsonl`` (see :mod:`repro.obs.trace`).
        Tracing is strictly a side channel — it is excluded from the campaign
        context fingerprint and provably cannot change a record byte, so a
        traced campaign resumes against (and ``cmp``-matches) an untraced
        one.  Render the breakdown with ``python -m repro.obs report``.
        """
        self._trace = Path(directory) if directory is not None else None
        return self

    def correlate(self, **ids: str) -> "Campaign":
        """Attach a correlation context to every run of this campaign.

        The ids (e.g. ``job=<plan fingerprint prefix>, shard=<shard name>``)
        ride each :class:`CampaignJob` into metric label sets and trace
        summaries, linking fleet-level series back to the dispatch unit that
        produced them.  A pure side channel: no content fingerprint and no
        persisted record byte changes.  Pass short, bounded identifiers —
        these become Prometheus labels.  Calling with no arguments clears
        the context.
        """
        self._correlation = tuple(
            sorted((str(key), str(value)) for key, value in ids.items())
        )
        return self

    def scenarios(self, count: int) -> "Campaign":
        """Evaluate on a ``count``-scenario subset of the 100-scenario
        evaluation suite (the ``"paper"`` preset, which refuses more)."""
        if count <= 0:
            raise ValueError("scenario count must be positive")
        self._scenario_count = count
        return self

    def repetitions(self, count: int) -> "Campaign":
        """Repetitions per scenario (each gets a distinct camera seed)."""
        if count <= 0:
            raise ValueError("repetitions must be positive")
        self._repetitions = count
        return self

    def mission(self, config: MissionConfig | None = None, **overrides: Any) -> "Campaign":
        """Set the mission timing/termination config (or override fields)."""
        base = config if config is not None else self._mission
        self._mission = replace(base, **overrides) if overrides else base
        return self

    def platform(self, platform: str) -> "Campaign":
        """Execution platform: a :data:`PLATFORM_FACTORIES` key.

        The key is resolved inside each run, so it crosses process and
        machine boundaries as is.
        """
        if not isinstance(platform, str) or platform not in PLATFORM_FACTORIES:
            raise ValueError(
                f"unknown platform {platform!r}; expected one of {sorted(PLATFORM_FACTORIES)}"
            )
        self._platform = platform
        return self

    def seed(self, base_seed: int) -> "Campaign":
        """Base seed for the generated suite (evaluation subset or preset/spec)."""
        self._seed = base_seed
        return self

    def parallel(self, workers: int | None = None) -> "Campaign":
        """Fan mission runs out over ``workers`` processes (default: all cores)."""
        if workers is None:
            workers = os.cpu_count() or 1
        if workers <= 0:
            raise ValueError("workers must be positive")
        self._workers = workers
        return self

    def progress(self, callback: Callable[[str], None] | None) -> "Campaign":
        """Callback receiving one line per completed run."""
        self._progress = callback
        return self

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def jobs(self, systems: Sequence[LandingSystemConfig] | None = None) -> list[CampaignJob]:
        """The fully-specified run grid this campaign will execute."""
        if systems is None:
            systems = self._resolved_systems()
        suite = self._resolved_suite()
        repetitions = self._repetitions if self._repetitions is not None else suite.repetitions
        jobs: list[CampaignJob] = []
        index = 0
        for system in systems:
            needs_network = _system_needs_network(system)
            for scenario in suite:
                for repetition in range(repetitions):
                    jobs.append(
                        CampaignJob(
                            index=index,
                            system=system,
                            scenario=scenario,
                            repetition=repetition,
                            # Preserve every user override; only the camera
                            # seed varies between repetitions.
                            mission=replace(self._mission, camera_seed=repetition),
                            platform=self._platform,
                            needs_network=needs_network,
                            faults=self._faults,
                            trace_dir=str(self._trace) if self._trace is not None else None,
                            correlation=self._correlation,
                        )
                    )
                    index += 1
        return jobs

    def run(self) -> dict[str, CampaignResult]:
        """Execute the campaign and aggregate per-system results."""
        systems = self._resolved_systems()
        jobs = self.jobs(systems)
        names = [config.name for config in systems]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate system names {duplicates}: give each system a "
                f"distinct name (LandingSystemConfig.custom(..., name=...))"
            )
        results = {config.name: CampaignResult(system_name=config.name) for config in systems}

        scenario_hashes: dict[str, str] = {}
        if self._out is not None:
            for job in jobs:
                if job.scenario.scenario_id not in scenario_hashes:
                    scenario_hashes[job.scenario.scenario_id] = job.scenario.fingerprint()
        context = self._context_fingerprint() if self._out is not None else ""
        restored = self._load_persisted(systems, context)
        pending: list[CampaignJob] = []
        for job in jobs:
            stored = restored.get(job.system.name, {}).get(
                (job.scenario.scenario_id, job.repetition)
            )
            if stored is None:
                pending.append(job)
                continue
            expected = scenario_hashes[job.scenario.scenario_id]
            if stored.scenario_fingerprint and stored.scenario_fingerprint != expected:
                raise ValueError(
                    f"{self._result_path(job.system.name)} holds a record for "
                    f"{job.scenario.scenario_id!r} rep {job.repetition} flown on "
                    f"different scenario contents (another suite seed with "
                    f"colliding ids?); use a fresh out directory or delete the "
                    f"stale results"
                )

        if any(job.needs_network for job in pending):
            # Train/load once up front: workers inherit the instance on
            # fork-start platforms and hit the disk cache elsewhere.
            _shared_network()

        if self._workers > 1 and len(pending) > 1:
            records = self._run_parallel(pending)
        else:
            records = map(_execute_job, pending)

        # Pending jobs keep their relative order, so fresh records interleave
        # with restored ones back into full submission order.
        fresh: Iterator[RunRecord] = iter(records)
        for job in jobs:
            cached = restored.get(job.system.name, {}).get(
                (job.scenario.scenario_id, job.repetition)
            )
            if cached is not None:
                record = cached
            else:
                record = next(fresh)
                if self._out is not None:
                    record.scenario_fingerprint = scenario_hashes[job.scenario.scenario_id]
                    append_record_jsonl(
                        self._result_path(job.system.name),
                        job.system.name,
                        record,
                        extra_header={
                            "campaign": context,
                            # The one run condition a record cannot carry;
                            # repro.analysis slices by it via this header.
                            "platform": self._platform,
                        },
                    )
            results[job.system.name].add(record)
            if self._progress is not None:
                self._progress(
                    f"{job.system.name} {job.scenario.scenario_id} rep{job.repetition}: "
                    f"{record.outcome.value} "
                    f"({'restored' if cached is not None else record.failure_reason or 'ok'})"
                )
        return results

    def analyze(
        self,
        *,
        seed: int = 0,
        confidence: float | None = None,
        resamples: int | None = None,
    ) -> "CampaignAnalysis":
        """Run the campaign and return a :class:`CampaignAnalysis` over it.

        The terminal of the fluent chain for statistical consumers::

            report = (
                Campaign(mls_v1(), mls_v3())
                .suite("stress").parallel(4)
                .analyze()
                .report()
            )

        The campaign's own suite is joined automatically, so scenario-factor
        slicing (``.slice("stress-axis")`` etc.) works out of the box.
        ``seed`` / ``confidence`` / ``resamples`` are the bootstrap and
        interval parameters (see :mod:`repro.analysis.stats`).
        """
        # Imported here: analysis is a pure consumer layer and campaign
        # execution must not depend on it at import time.
        from repro.analysis.engine import CampaignAnalysis
        from repro.analysis.stats import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES

        # Resolve (for specs/presets: generate) the suite once so run() and
        # the scenario join below share one object instead of generating the
        # suite twice; the original suite setting is restored afterwards so
        # suite()'s "a later .seed() still applies" contract holds.
        previous_suite = self._suite
        self._suite = suite = self._resolved_suite()
        try:
            results = self.run()
        finally:
            self._suite = previous_suite
        return CampaignAnalysis(
            results,
            suites=[suite],
            seed=seed,
            confidence=DEFAULT_CONFIDENCE if confidence is None else confidence,
            resamples=DEFAULT_RESAMPLES if resamples is None else resamples,
        )

    def dispatch(
        self,
        directory: str | Path,
        *,
        shards: int,
        workers: int | None = None,
        lease_seconds: float = 60.0,
    ) -> dict[str, CampaignResult]:
        """Run the campaign as a sharded work queue under ``directory``.

        The distributed-execution terminal of the fluent chain::

            results = (
                Campaign(mls_v1(), mls_v3())
                .suite("stress")
                .dispatch("runs/stress", shards=8, workers=4)
            )

        The campaign is planned into ``shards`` content-fingerprinted shard
        manifests (see :mod:`repro.dispatch`), executed by ``workers`` local
        workers (default: this campaign's ``.parallel(...)`` count) and
        merged back into per-system JSONL files that are byte-identical to
        what a single-process ``.out(directory).run()`` would have written.
        Like ``.run()``, one worker drains the queue in-process and reports
        each run to ``.progress()``; more spawn worker processes.  Either
        way the ``.correlate()`` ids reach every run, next to the ``job``
        and ``shard`` ids the workers add, and ``.trace()`` reaches every
        worker as its ``trace_dir``.  ``directory`` can
        simultaneously be served by workers on other machines (``python -m
        repro.dispatch work <directory>``), and re-dispatching the same
        campaign into the same directory resumes instead of re-flying.
        """
        # Imported here: the dispatch layer orchestrates campaigns and
        # imports this module, so the dependency cannot be import-time.
        from repro.dispatch.merge import load_merged, merge_dispatch
        from repro.dispatch.planner import plan_dispatch
        from repro.dispatch.worker import run_local_workers, run_worker

        suite = self._resolved_suite()
        repetitions = self._repetitions if self._repetitions is not None else suite.repetitions
        plan_dispatch(
            directory,
            suite,
            self._resolved_systems(),
            shards=shards,
            repetitions=repetitions,
            mission=self._mission,
            platform=self._platform,
            faults=self._faults,
        )
        workers = workers if workers is not None else self._workers
        correlation = dict(self._correlation)
        if workers == 1:
            run_worker(
                directory,
                lease_seconds=lease_seconds,
                progress=self._progress,
                correlation=correlation,
                trace_dir=self._trace,
            )
        else:
            run_local_workers(
                directory,
                workers=workers,
                lease_seconds=lease_seconds,
                correlation=correlation,
                trace_dir=self._trace,
            )
        merge_dispatch(directory)
        return load_merged(directory)

    # ------------------------------------------------------------------ #
    # result persistence
    # ------------------------------------------------------------------ #
    def _result_path(self, system_name: str) -> Path:
        assert self._out is not None
        return self._out / campaign_result_filename(system_name)

    def _context_fingerprint(self) -> str:
        """See :func:`campaign_context_fingerprint`.

        Scenario contents are guarded separately and per record (see
        ``RunRecord.scenario_fingerprint``), so growing a suite or its
        repetition count still resumes.
        """
        return campaign_context_fingerprint(self._mission, self._platform, self._faults)

    def _load_persisted(
        self, systems: Sequence[LandingSystemConfig], context: str
    ) -> dict[str, dict[tuple[str, int], RunRecord]]:
        """Previously persisted records, keyed by system then (scenario, rep)."""
        if self._out is None:
            return {}
        restored: dict[str, dict[tuple[str, int], RunRecord]] = {}
        for config in systems:
            path = self._result_path(config.name)
            if not path.exists():
                continue
            header, records, torn = read_campaign_jsonl(path)
            if str(header.get("system")) != config.name:
                raise ValueError(
                    f"{path} holds results for {header.get('system')!r}, "
                    f"refusing to resume campaign system {config.name!r} from it"
                )
            stored = header.get("campaign")
            if stored is not None and stored != context:
                raise ValueError(
                    f"{path} was produced by a different campaign configuration "
                    f"(mission config or platform changed); use a fresh out "
                    f"directory or delete the stale results"
                )
            stale_schema = int(header.get("schema", 1)) < RESULT_SCHEMA_VERSION
            if torn or stale_schema:
                # Heal the file: drop a buried torn line, and upgrade an
                # older-schema header before current-schema records are
                # appended under it (readers gate on the header, so a
                # schema-1 header over schema-2 records would defeat the
                # "upgrade to read it" error for older readers).  The file
                # is replaced whole: an interrupted heal leaves it as it was.
                if stale_schema:
                    header = {**header, "schema": RESULT_SCHEMA_VERSION}
                write_campaign_jsonl(path, header, records)
            restored[config.name] = {
                (record.scenario_id, record.repetition): record for record in records
            }
        return restored

    def _run_parallel(self, jobs: Sequence[CampaignJob]) -> Iterable[RunRecord]:
        workers = min(self._workers, len(jobs))
        with ProcessPoolExecutor(max_workers=workers) as executor:
            # executor.map preserves submission order, which keeps parallel
            # aggregation identical to the serial path.
            yield from executor.map(_execute_job, jobs)

    # ------------------------------------------------------------------ #
    def _resolved_systems(self) -> list[LandingSystemConfig]:
        return list(self._systems) if self._systems else [mls_v1(), mls_v2(), mls_v3()]

    def _resolved_suite(self) -> ScenarioSuite:
        if isinstance(self._suite, ScenarioSuite):
            return self._suite
        if self._suite is not None:
            # A SuiteSpec or preset name: generate now (deterministic), with
            # .seed(...) overriding the spec's own seed when it was called.
            return generate_suite(self._suite, seed=self._seed)
        return generate_suite(
            "paper",
            count=self._scenario_count if self._scenario_count is not None else DEFAULT_SCENARIOS,
            seed=self._seed,
            repetitions=self._repetitions if self._repetitions is not None else DEFAULT_REPETITIONS,
        )
