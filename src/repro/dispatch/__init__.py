"""Distributed campaign dispatch: sharded work-queue execution.

This package turns the single-process campaign runner into a horizontally
scalable execution service built on nothing but a shared directory:

* :mod:`repro.dispatch.planner` — split any campaign into deterministic,
  content-fingerprinted shard manifests;
* :mod:`repro.dispatch.queue` — a filesystem work queue where workers claim
  shards via atomic lease files with heartbeats, so crashed workers' shards
  are re-claimed after their lease expires;
* :mod:`repro.dispatch.worker` — the claim/fly/complete worker loop,
  resuming partially-flown shards through ``Campaign.out`` persistence;
* :mod:`repro.dispatch.merge` — recombine per-shard outputs into per-system
  JSONL byte-identical to a single-process run;
* :mod:`repro.dispatch.cli` — the ``python -m repro.dispatch`` CLI
  (``plan`` / ``work`` / ``status`` / ``merge``); a whole local dispatch is
  ``python -m repro.scenarios run --dispatch DIR``.

Fluent entry point: :meth:`repro.Campaign.dispatch`.
"""

from repro.dispatch.merge import ShardResultError, load_merged, merge_dispatch
from repro.dispatch.planner import (
    DispatchPlan,
    ShardSpec,
    build_plan,
    load_plan,
    load_suite,
    plan_dispatch,
    suite_fingerprint,
)
from repro.dispatch.queue import (
    DEFAULT_LEASE_SECONDS,
    LeaseLostError,
    ShardLease,
    ShardQueue,
    ShardState,
    ShardStatus,
)
from repro.dispatch.worker import WorkerReport, run_local_workers, run_worker

__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "DispatchPlan",
    "LeaseLostError",
    "ShardLease",
    "ShardQueue",
    "ShardResultError",
    "ShardSpec",
    "ShardState",
    "ShardStatus",
    "WorkerReport",
    "build_plan",
    "load_merged",
    "load_plan",
    "load_suite",
    "merge_dispatch",
    "plan_dispatch",
    "run_local_workers",
    "run_worker",
    "suite_fingerprint",
]
