"""The service's job model: submissions, dedup, and on-disk job state.

A *job* is one sharded campaign living under the service root::

    <root>/jobs/<plan-fingerprint>/
        job.json            submission record (sequence, payload, suite spec)
        cancelled.json      present once the job was cancelled
        dispatch/           a standard dispatch directory (plan.json, shards/,
                            merged/, .report-cache/) — the same layout
                            ``python -m repro.dispatch`` operates on

The job id IS the dispatch plan's content fingerprint, which is what makes
submission idempotent: planning is deterministic, so an identical submission
(same spec, seed, systems, repetitions, platform, fault plan, shards)
resolves to the same id and re-joins the existing job instead of re-flying
it.  Different submissions get disjoint directories, so they are isolated by
construction.

Everything the server knows is (re)derived from this tree — `job.json` for
the submission, the dispatch queue files for progress — so a restarted
server resumes exactly where the directory tree says the platform is.
External ``python -m repro.dispatch work <job>/dispatch`` workers operate on
the same files and therefore compose with the in-process pool.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.bench.campaign import PLATFORM_FACTORIES
from repro.core.config import PRESETS, LandingSystemConfig, preset
from repro.dispatch.merge import ensure_merged
from repro.dispatch.planner import build_plan, plan_dispatch
from repro.dispatch.queue import ShardQueue
from repro.faults.spec import FaultSpec
from repro.jsonl import write_json_atomic
from repro.world.scenario_gen import PRESET_NAMES, SuiteSpec, generate_suite
from repro.world.spec_validation import (
    SpecIssue,
    SpecValidationError,
    validate_fault_axis,
    validate_suite_spec,
)

JOBS_DIRNAME = "jobs"
JOB_FILENAME = "job.json"
CANCEL_FILENAME = "cancelled.json"
DISPATCH_DIRNAME = "dispatch"

#: Default execution grid for submissions that do not say otherwise.
DEFAULT_SYSTEMS = ("mls-v1", "mls-v2", "mls-v3")
DEFAULT_SHARDS = 2

#: Submission payload keys the intake accepts (anything else is an error, so
#: a typo like ``"repetition"`` cannot silently fall back to a default).
SUBMISSION_FIELDS = {
    "spec", "preset", "count", "seed", "repetitions",
    "systems", "shards", "platform", "faults",
}


class UnknownJobError(KeyError):
    """No job with the requested id exists under the service root."""


@dataclass
class Job:
    """One submitted campaign, addressed by its dispatch-plan fingerprint."""

    id: str
    sequence: int
    root: Path

    @property
    def dir(self) -> Path:
        return self.root / JOBS_DIRNAME / self.id

    @property
    def dispatch_dir(self) -> Path:
        return self.dir / DISPATCH_DIRNAME

    @property
    def cancelled(self) -> bool:
        return (self.dir / CANCEL_FILENAME).exists()

    def queue(self) -> ShardQueue:
        return ShardQueue(self.dispatch_dir)


def _intake_suite(
    payload: dict[str, Any], issues: list[SpecIssue]
) -> SuiteSpec | str | None:
    """The suite axis of a submission: an inline SuiteSpec or a preset name."""
    if "spec" in payload and "preset" in payload:
        issues.append(SpecIssue("spec", "give exactly one of 'spec' or 'preset'"))
        return None
    if "spec" in payload:
        try:
            return validate_suite_spec(payload["spec"])
        except SpecValidationError as error:
            issues.extend(
                SpecIssue(f"spec.{issue.field}" if issue.field else "spec", issue.reason)
                for issue in error.issues
            )
            return None
    name = payload.get("preset", "smoke")
    if not isinstance(name, str) or name not in PRESET_NAMES:
        issues.append(
            SpecIssue("preset", f"unknown suite preset {name!r}; expected one of "
                                f"{sorted(PRESET_NAMES)}")
        )
        return None
    return name


def _intake_systems(payload: dict[str, Any], issues: list[SpecIssue]) -> list[LandingSystemConfig]:
    names = payload.get("systems", list(DEFAULT_SYSTEMS))
    if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        issues.append(SpecIssue("systems", "expected a list of system preset names"))
        return []
    systems: list[LandingSystemConfig] = []
    for index, name in enumerate(names):
        try:
            systems.append(preset(name))
        except ValueError:
            issues.append(
                SpecIssue(f"systems[{index}]",
                          f"unknown system preset {name!r}; expected one of {sorted(PRESETS)}")
            )
    if not issues and not systems:
        issues.append(SpecIssue("systems", "at least one system is required"))
    return systems


def _intake_int(
    payload: dict[str, Any], key: str, default: int | None,
    issues: list[SpecIssue], *, minimum: int = 1,
) -> int | None:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        issues.append(SpecIssue(key, f"expected an integer, got {type(value).__name__}"))
        return default
    if value < minimum:
        issues.append(SpecIssue(key, f"must be >= {minimum}, got {value}"))
        return default
    return value


@dataclass
class Submission:
    """A validated submission, ready to plan."""

    suite: Any  # ScenarioSuite
    systems: list[LandingSystemConfig]
    shards: int
    repetitions: int | None
    platform: str
    faults: tuple[FaultSpec, ...]
    payload: dict[str, Any]


def validate_submission(payload: Any) -> Submission:
    """Validate a ``POST /jobs`` body; raises :class:`SpecValidationError`.

    Every field problem is collected into one structured error (the 400
    response body), mirroring the ``--spec`` CLI behaviour.
    """
    if not isinstance(payload, dict):
        raise SpecValidationError(
            [SpecIssue("", f"expected a submission object, got {type(payload).__name__}")],
            subject="submission",
        )
    issues: list[SpecIssue] = []
    for key in sorted(set(payload) - SUBMISSION_FIELDS):
        issues.append(SpecIssue(key, "unknown submission field"))

    spec = _intake_suite(payload, issues)
    systems = _intake_systems(payload, issues)
    shards = _intake_int(payload, "shards", DEFAULT_SHARDS, issues)
    repetitions = _intake_int(payload, "repetitions", None, issues)
    count = _intake_int(payload, "count", None, issues)
    seed = _intake_int(payload, "seed", None, issues, minimum=0)

    platform = payload.get("platform", "desktop")
    if platform not in PLATFORM_FACTORIES:
        issues.append(
            SpecIssue("platform", f"unknown platform {platform!r}; expected one of "
                                  f"{sorted(PLATFORM_FACTORIES)}")
        )

    faults: tuple[FaultSpec, ...] = ()
    try:
        faults = validate_fault_axis(payload.get("faults"))
    except SpecValidationError as error:
        issues.extend(error.issues)

    if issues or spec is None:
        raise SpecValidationError(issues, subject="submission")
    return Submission(
        suite=generate_suite(spec, count=count, seed=seed, repetitions=repetitions),
        systems=systems,
        shards=shards,
        repetitions=repetitions,
        platform=platform,
        faults=faults,
        payload=payload,
    )


class JobStore:
    """All jobs under one service root; safe for concurrent handler threads.

    The store holds no authoritative state: submissions, progress and
    results live in the directory tree, so any number of stores (a restarted
    server, an external CLI) see the same platform.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        (self.root / JOBS_DIRNAME).mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._merge_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def _job_at(self, directory: Path) -> Job | None:
        job_file = directory / JOB_FILENAME
        try:
            data = json.loads(job_file.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None  # half-created job (crashed mid-submit): invisible
        return Job(id=directory.name, sequence=int(data.get("sequence", 0)), root=self.root)

    def jobs(self) -> list[Job]:
        """Every job, in submission order (stable across restarts)."""
        found = []
        for directory in (self.root / JOBS_DIRNAME).iterdir():
            if directory.is_dir():
                job = self._job_at(directory)
                if job is not None:
                    found.append(job)
        return sorted(found, key=lambda job: (job.sequence, job.id))

    def get(self, job_id: str) -> Job:
        if "/" in job_id or job_id in (".", ".."):
            raise UnknownJobError(job_id)
        job = self._job_at(self.root / JOBS_DIRNAME / job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, payload: Any) -> tuple[Job, bool]:
        """Validate, plan and persist a submission; ``(job, created)``.

        Resubmitting an identical campaign returns the existing job with
        ``created=False`` (dedup by plan fingerprint).
        """
        submission = validate_submission(payload)
        plan = build_plan(
            submission.suite,
            submission.systems,
            shards=submission.shards,
            repetitions=submission.repetitions,
            platform=submission.platform,
            faults=submission.faults,
        )
        with self._lock:
            job = Job(id=plan.fingerprint, sequence=0, root=self.root)
            existing = self._job_at(job.dir)
            if existing is not None:
                return existing, False
            sequence = 1 + max((j.sequence for j in self.jobs()), default=0)
            job.dispatch_dir.mkdir(parents=True, exist_ok=True)
            # plan_dispatch re-validates and is idempotent, so a directory
            # left by a crashed earlier submit of the same campaign re-joins.
            plan_dispatch(
                job.dispatch_dir,
                submission.suite,
                submission.systems,
                shards=submission.shards,
                repetitions=submission.repetitions,
                platform=submission.platform,
                faults=submission.faults,
            )
            # job.json is written last: a job is visible only once complete.
            write_json_atomic(
                job.dir / JOB_FILENAME,
                {
                    "kind": "service-job",
                    "id": plan.fingerprint,
                    "sequence": sequence,
                    "submission": submission.payload,
                },
            )
            return Job(id=plan.fingerprint, sequence=sequence, root=self.root), True

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: str) -> Job:
        job = self.get(job_id)
        write_json_atomic(
            job.dir / CANCEL_FILENAME, {"kind": "service-cancel", "id": job.id}
        )
        return job

    def job_state(self, job: Job, status: dict[str, Any] | None = None) -> str:
        """``queued`` / ``running`` / ``done`` / ``cancelled``."""
        if job.cancelled:
            return "cancelled"
        payload = status if status is not None else job.queue().status_payload()
        if payload["all_done"]:
            return "done"
        states = payload["shard_states"]
        if states.get("running") or states.get("done") or states.get("stale"):
            return "running"
        return "queued"

    def status_payload(self, job: Job) -> dict[str, Any]:
        """The job's full status object (``GET /jobs/{id}``)."""
        queue_status = job.queue().status_payload()
        return {
            "id": job.id,
            "sequence": job.sequence,
            "state": self.job_state(job, queue_status),
            "cancelled": job.cancelled,
            "queue": queue_status,
        }

    def summary_payload(self, job: Job) -> dict[str, Any]:
        """The compact per-job object in ``GET /jobs`` listings."""
        queue_status = job.queue().status_payload()
        return {
            "id": job.id,
            "sequence": job.sequence,
            "state": self.job_state(job, queue_status),
            "name": queue_status["name"],
            "total_runs": queue_status["total_runs"],
            "runs_done": queue_status["runs_done"],
        }

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def ensure_merged(self, job: Job) -> Path:
        """Merge the job's shard outputs (once); returns the merged dir.

        Raises ``ShardResultError`` while shards are still outstanding.
        Serialised, so that pool threads do not merge one job twice (a
        concurrent merge would still be safe, only wasted work).
        """
        with self._merge_lock:
            return ensure_merged(job.dispatch_dir)
