"""The dispatch worker: claim shards, fly them, publish completion.

A worker is a plain process pointed at a dispatch directory.  It loops —
claim a shard, run the shard's slice of the campaign, mark it done — until
every shard of the plan is finished, so any number of workers (on any
machines sharing the directory) drain the queue cooperatively and exit
together.

Crash safety comes from composing two existing mechanisms:

* every completed run is persisted immediately by ``Campaign.out(...)``
  append-through persistence, and
* the shard's lease expires when the worker stops heartbeating,

so a worker killed mid-shard loses at most its in-flight mission: whoever
re-claims the shard resumes from the persisted records instead of re-flying
them.  The heartbeat runs on a daemon thread because a single mission can
legitimately take longer than the lease.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.bench.campaign import Campaign
from repro.dispatch.planner import DispatchPlan, ShardSpec, load_plan, load_suite
from repro.dispatch.queue import (
    DEFAULT_LEASE_SECONDS,
    ShardLease,
    ShardQueue,
)
from repro.obs.export import flush_metrics
from repro.obs.metrics import METRICS
from repro.world.scenario_suite import ScenarioSuite

#: How often a shard's queue state is re-polled while nothing is claimable.
#: Short, because an idle worker notices the plan is done only on a poll, and
#: ``run_local_workers`` waits for every worker to exit.
DEFAULT_POLL_SECONDS = 0.05


def default_worker_id() -> str:
    """A human-traceable unique worker id: host, pid and a random suffix."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclass
class WorkerReport:
    """What one worker loop accomplished (returned by :func:`run_worker`)."""

    worker_id: str
    shards_completed: list[int] = field(default_factory=list)
    records_flown: int = 0


class _ShardAbandoned(Exception):
    """Raised between missions when the shard's lease was lost mid-flight."""


class _Heartbeat:
    """A daemon thread refreshing a lease while its shard executes."""

    def __init__(self, lease: ShardLease, interval: float) -> None:
        self._lease = lease
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{lease.shard.name}", daemon=True
        )
        self.error: Exception | None = None

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._lease.heartbeat()
            except Exception as error:  # LeaseLostError or I/O trouble
                self.error = error
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _shard_campaign(
    plan: DispatchPlan,
    suite: ScenarioSuite,
    shard: ShardSpec,
    results_dir: Path,
    progress: Callable[[str], None] | None,
    correlation: Mapping[str, str] | None = None,
    trace_dir: str | Path | None = None,
) -> Campaign:
    """The campaign executing exactly one shard's slice of the plan."""
    campaign = (
        Campaign(*plan.systems)
        .suite(suite.slice(shard.start, shard.stop))
        .repetitions(plan.repetitions)
        .mission(plan.mission)
        .platform(plan.platform)
        .faults(*plan.faults)
        .out(results_dir)
        # Correlation context: the caller's ids plus the plan fingerprint
        # prefix and shard name ride every run's metric labels and trace
        # summaries, so fleet series link back to the dispatch unit (and
        # the fault probe, say) that produced them.
        .correlate(**{**(correlation or {}), "job": plan.fingerprint[:10], "shard": shard.name})
        .trace(trace_dir)
    )
    if progress is not None:
        campaign.progress(progress)
    return campaign


def run_worker(
    directory: str | Path,
    *,
    worker_id: str | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    max_shards: int | None = None,
    wait: bool = True,
    progress: Callable[[str], None] | None = None,
    correlation: Mapping[str, str] | None = None,
    trace_dir: str | Path | None = None,
) -> WorkerReport:
    """Drain shards from a dispatch directory until the plan is complete.

    Args:
        directory: the planned dispatch directory (see
            :func:`repro.dispatch.planner.plan_dispatch`).
        worker_id: identity written into leases and completion markers.
        lease_seconds: how long after the last heartbeat other workers may
            presume this worker dead and re-claim its shard.
        poll_seconds: re-poll interval while other workers hold every
            remaining shard (default 0.05 s: an idle worker returns within
            one interval of the last shard's completion, and each poll is
            one directory scan).
        max_shards: stop after completing this many shards (``None``: all).
        wait: when nothing is claimable but the plan is unfinished, keep
            polling (``True``, the default — this is what lets a surviving
            worker pick up a crashed one's shard once its lease expires)
            or return immediately (``False``).
        progress: optional callback receiving one line per completed run.
        correlation: ids stamped on every run's metric labels and trace
            summary, next to the ``job`` and ``shard`` ids the worker adds.
        trace_dir: directory receiving every run's flight-trace summary
            (``None``: untraced); ``dispatch work --trace DIR`` sets it.
    """
    directory = Path(directory)
    plan = load_plan(directory)
    suite = load_suite(directory, plan)
    queue = ShardQueue(directory, plan)
    report = WorkerReport(worker_id=worker_id or default_worker_id())

    while True:
        if max_shards is not None and len(report.shards_completed) >= max_shards:
            break
        lease = queue.claim(report.worker_id, lease_seconds)
        if lease is None:
            if queue.all_done() or not wait:
                break
            time.sleep(poll_seconds)
            continue
        shard = lease.shard
        heartbeat = _Heartbeat(lease, interval=lease_seconds / 3.0)

        def per_run(line: str, _heartbeat=heartbeat) -> None:
            # Runs after every completed mission: noticing a lost lease here
            # bounds the duplicated work to one in-flight mission instead of
            # the rest of the shard.
            if _heartbeat.error is not None:
                raise _ShardAbandoned(str(_heartbeat.error))
            if progress is not None:
                progress(line)

        try:
            if progress is not None:
                # Inside the release-on-raise block: a progress callback that
                # raises (the service's cancel signal) must not leak the lease.
                progress(
                    f"[{report.worker_id}] claimed {shard.name} "
                    f"({shard.stop - shard.start} scenarios, "
                    f"{plan.runs_per_shard(shard)} runs)"
                )
            campaign = _shard_campaign(
                plan, suite, shard, lease.results_dir, per_run, correlation, trace_dir
            )
            with heartbeat:
                results = campaign.run()
        except _ShardAbandoned:
            results = None
        except BaseException:
            # Let another worker (or a retry of this one) have the shard
            # immediately; the records persisted so far are kept and resumed.
            # (release() is token-guarded, so if the real problem was a lost
            # lease it leaves the new owner's claim alone.)
            lease.release()
            raise
        if results is None or heartbeat.error is not None:
            # We stalled past our own lease and another worker took the
            # shard over: it is theirs now.  Do not publish done.json and do
            # not touch the (new owner's) lease — our persisted records stay
            # for the new owner to resume from.
            if progress is not None:
                progress(
                    f"[{report.worker_id}] lost the lease on {shard.name} "
                    f"mid-shard ({heartbeat.error}); abandoning it to the new owner"
                )
            METRICS.counter(
                "repro_dispatch_leases_lost_total",
                "Shard leases this worker stalled past and lost mid-shard.",
            ).inc()
            flush_metrics(directory)
            continue
        counts = {name: len(result) for name, result in results.items()}
        lease.mark_done(counts)
        report.shards_completed.append(shard.index)
        report.records_flown += sum(counts.values())
        METRICS.counter(
            "repro_dispatch_shards_completed_total",
            "Shards this worker claimed and drove to done.json.",
        ).inc()
        METRICS.counter(
            "repro_dispatch_records_flown_total",
            "Campaign records produced by this worker's completed shards.",
        ).inc(sum(counts.values()))
        # Publish this process's registry state next to the shard outputs:
        # per-shard (not per-run) keeps flushing off the mission hot path
        # while the fleet aggregator still sees progress as shards land.
        flush_metrics(directory)
        if progress is not None:
            progress(f"[{report.worker_id}] completed {shard.name}")
    flush_metrics(directory)
    return report


# ---------------------------------------------------------------------- #
# local multi-worker convenience
# ---------------------------------------------------------------------- #
def _local_worker_entry(
    directory: str,
    worker_id: str,
    lease_seconds: float,
    correlation: Mapping[str, str] | None,
    trace_dir: str | Path | None,
) -> None:  # pragma: no cover - exercised via subprocesses
    run_worker(
        directory, worker_id=worker_id, lease_seconds=lease_seconds,
        correlation=correlation, trace_dir=trace_dir,
    )


def run_local_workers(
    directory: str | Path,
    *,
    workers: int = 2,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    correlation: Mapping[str, str] | None = None,
    trace_dir: str | Path | None = None,
) -> None:
    """Drain a dispatch directory with ``workers`` local worker processes.

    The multi-process half of ``Campaign.dispatch(...)``, which drains
    in-process (:func:`run_worker`) when it has one worker;
    cross-machine pools start ``python -m repro.dispatch work`` everywhere
    instead.  ``correlation`` and ``trace_dir`` reach every worker's
    :func:`run_worker`.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    directory = Path(directory)
    load_plan(directory)  # fail fast before spawning anything

    import multiprocessing

    prefix = default_worker_id()
    processes = [
        multiprocessing.Process(
            target=_local_worker_entry,
            args=(str(directory), f"{prefix}-w{index}", lease_seconds, correlation, trace_dir),
            name=f"dispatch-worker-{index}",
        )
        for index in range(workers)
    ]
    for process in processes:
        process.start()
    failures = []
    for process in processes:
        process.join()
        if process.exitcode != 0:
            failures.append(f"{process.name} exited with code {process.exitcode}")
    if failures:
        raise RuntimeError(
            "dispatch worker process(es) failed: " + "; ".join(failures)
        )
