"""Filesystem-backed shard work queue: atomic claims, leases, heartbeats.

Coordination is plain files inside each shard directory, so any set of
processes — on one machine or many sharing the dispatch directory — form the
worker pool without a broker:

* ``lease.json`` is the claim.  It is created with ``O_CREAT | O_EXCL``, so
  exactly one worker can claim an unclaimed shard, and refreshed in place by
  the owner's heartbeat.
* A lease whose heartbeat is older than its ``lease_seconds`` is *stale*:
  the owning worker crashed (or lost the directory).  Stealing a stale lease
  is an atomic ``rename`` of the lease file to a unique name — at most one
  contender grabs any given lease file, and the winner verifies it grabbed
  the exact lease it observed stale (restoring it otherwise) before
  re-creating the lease with ``O_EXCL``.  The new owner resumes from the
  records the dead worker already persisted.
* ``done.json`` marks completion (with per-system record counts); it is
  written atomically before the lease is released, so a shard is never
  observable as both unclaimed and unfinished once its work exists.

Ownership transfer is *eventually* exclusive, not instantaneous: a worker
that stalls past its own lease learns of the eviction at its next heartbeat
or release (both token-guarded), so for a short window the displaced owner
and the new one can both be flying the shard.  That window only duplicates
work — missions are deterministic and the merger collapses identical
duplicate records — it never corrupts the outcome (in the worst case, an
append interleaving that tears a record line makes the merger *refuse*
rather than guess).  Lease expiry compares
the lease's own heartbeat timestamp against this machine's clock, so
multi-machine pools need loosely synchronised clocks (NTP-level skew is
fine for the default 60 s lease).
"""

from __future__ import annotations

import enum
import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.dispatch.planner import (
    DispatchPlan,
    ShardSpec,
    load_plan,
    shard_dir,
    shard_results_dir,
)
from repro.jsonl import write_json_atomic
from repro.obs.metrics import METRICS

#: Default worker lease: a heartbeat older than this marks the worker dead.
DEFAULT_LEASE_SECONDS = 60.0

LEASE_FILENAME = "lease.json"
DONE_FILENAME = "done.json"


class ShardState(enum.Enum):
    """Lifecycle of one shard in the queue."""

    PENDING = "pending"      # unclaimed, not done
    RUNNING = "running"      # claimed, heartbeat fresh
    STALE = "stale"          # claimed, heartbeat expired (owner presumed dead)
    DONE = "done"            # done.json present


class LeaseLostError(RuntimeError):
    """The worker's lease was evicted (it stalled past its own lease)."""


@dataclass
class ShardStatus:
    """One shard's observable queue state (for ``dispatch status`` / tests)."""

    shard: ShardSpec
    state: ShardState
    worker: str = ""
    heartbeat_age: float | None = None
    records: int | None = None
    #: The lease the shard was claimed under; with ``heartbeat_age`` this is
    #: what makes a stuck worker diagnosable from ``dispatch status`` alone
    #: (age vs limit) instead of reading ``lease.json`` by hand.
    lease_seconds: float | None = None

    @property
    def stale(self) -> bool:
        """Heartbeat expired: the owning worker is presumed dead."""
        return self.state is ShardState.STALE

    def to_dict(self) -> dict:
        """JSON-compatible view (``dispatch status --json`` / the service)."""
        return {
            "shard": self.shard.name,
            "index": self.shard.index,
            "start": self.shard.start,
            "stop": self.shard.stop,
            "fingerprint": self.shard.fingerprint,
            "state": self.state.value,
            "worker": self.worker or None,
            "heartbeat_age": self.heartbeat_age,
            "lease_seconds": self.lease_seconds,
            "stale": self.stale,
            "records": self.records,
        }


class ShardLease:
    """An exclusive, heartbeat-renewed claim on one shard."""

    def __init__(
        self,
        queue: "ShardQueue",
        shard: ShardSpec,
        worker_id: str,
        lease_seconds: float,
        token: str,
    ) -> None:
        self.queue = queue
        self.shard = shard
        self.worker_id = worker_id
        self.lease_seconds = lease_seconds
        self.token = token
        self.released = False

    @property
    def path(self) -> Path:
        return self.queue.lease_path(self.shard)

    @property
    def results_dir(self) -> Path:
        return shard_results_dir(self.queue.directory, self.shard)

    def _payload(self) -> dict:
        return {
            "kind": "shard-lease",
            "shard": self.shard.index,
            "worker": self.worker_id,
            "token": self.token,
            "heartbeat_at": time.time(),
            "lease_seconds": self.lease_seconds,
        }

    def heartbeat(self) -> None:
        """Refresh the lease; raises :class:`LeaseLostError` if evicted."""
        if self.released:
            raise LeaseLostError(f"lease on {self.shard.name} already released")
        try:
            current = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            current = None
        if not current or current.get("token") != self.token:
            raise LeaseLostError(
                f"lease on {self.shard.name} was evicted (worker stalled past "
                f"its {self.lease_seconds:.0f}s lease and another worker took over)"
            )
        write_json_atomic(self.path, self._payload())

    def mark_done(self, records: dict[str, int]) -> None:
        """Atomically publish completion, then release the claim."""
        write_json_atomic(
            self.queue.done_path(self.shard),
            {
                "kind": "shard-done",
                "shard": self.shard.index,
                "shard_fingerprint": self.shard.fingerprint,
                "plan": self.queue.plan.fingerprint,
                "worker": self.worker_id,
                "records": records,
            },
        )
        self.release()

    def release(self) -> None:
        """Drop the claim (done or not); idempotent.

        Token-guarded: if this lease was evicted while we stalled, the file
        on disk now belongs to another worker and must not be unlinked.
        """
        if self.released:
            return
        self.released = True
        current = ShardQueue._parse_lease(self.path)
        if current is not None and current.get("token") != self.token:
            return  # evicted: the lease is the new owner's now
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


class ShardQueue:
    """The queue view over one dispatch directory."""

    def __init__(self, directory: str | Path, plan: DispatchPlan | None = None) -> None:
        self.directory = Path(directory)
        self.plan = plan if plan is not None else load_plan(directory)

    # ------------------------------------------------------------------ #
    def lease_path(self, shard: ShardSpec) -> Path:
        return shard_dir(self.directory, shard) / LEASE_FILENAME

    def done_path(self, shard: ShardSpec) -> Path:
        return shard_dir(self.directory, shard) / DONE_FILENAME

    def read_done(self, shard: ShardSpec) -> dict | None:
        """The shard's completion marker, validated against the plan."""
        path = self.done_path(shard)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            raise ValueError(f"{path}: malformed completion marker: {error}") from error
        if data.get("plan") != self.plan.fingerprint:
            raise ValueError(
                f"{path} was produced under a different dispatch plan "
                f"({data.get('plan')} != {self.plan.fingerprint})"
            )
        return data

    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_lease(path: Path) -> dict | None:
        """The lease file's payload, or ``None`` when missing/torn."""
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def _lease_heartbeat(self, shard: ShardSpec) -> tuple[dict | None, float | None]:
        """(payload, heartbeat timestamp) of the shard's lease, if any.

        A torn/unreadable lease file (its writer died mid-write) falls back
        to the file's mtime, so it still expires and gets evicted.
        """
        path = self.lease_path(shard)
        payload = self._parse_lease(path)
        if payload is not None:
            try:
                return payload, float(payload["heartbeat_at"])
            except (KeyError, TypeError, ValueError):
                pass
        try:
            return payload if payload is not None else {}, path.stat().st_mtime
        except OSError:
            return None, None

    def status(self) -> list[ShardStatus]:
        """A point-in-time snapshot of every shard's state."""
        now = time.time()
        statuses: list[ShardStatus] = []
        for shard in self.plan.shards:
            done = self.read_done(shard)
            if done is not None:
                records = done.get("records") or {}
                statuses.append(
                    ShardStatus(
                        shard=shard,
                        state=ShardState.DONE,
                        worker=str(done.get("worker", "")),
                        records=sum(records.values()),
                    )
                )
                continue
            payload, heartbeat = self._lease_heartbeat(shard)
            if heartbeat is None:
                statuses.append(ShardStatus(shard=shard, state=ShardState.PENDING))
                continue
            age = max(0.0, now - heartbeat)
            lease_seconds = float(
                (payload or {}).get("lease_seconds", DEFAULT_LEASE_SECONDS)
            )
            statuses.append(
                ShardStatus(
                    shard=shard,
                    state=ShardState.STALE if age > lease_seconds else ShardState.RUNNING,
                    worker=str((payload or {}).get("worker", "")),
                    heartbeat_age=age,
                    lease_seconds=lease_seconds,
                )
            )
        self._export_status_metrics(statuses)
        return statuses

    def _export_status_metrics(self, statuses: list[ShardStatus]) -> None:
        """Mirror the snapshot into the process-local metrics registry."""
        shards = METRICS.gauge(
            "repro_dispatch_shards", "Shards by queue state, per dispatch plan."
        )
        states = [status.state.value for status in statuses]
        for state in ShardState:
            shards.set(states.count(state.value), plan=self.plan.name, state=state.value)
        ages = [s.heartbeat_age for s in statuses if s.heartbeat_age is not None]
        METRICS.gauge(
            "repro_dispatch_oldest_heartbeat_age_seconds",
            "Age of the stalest live lease heartbeat, per dispatch plan.",
        ).set(max(ages) if ages else 0.0, plan=self.plan.name)

    def all_done(self) -> bool:
        return all(self.read_done(shard) is not None for shard in self.plan.shards)

    def status_payload(self) -> dict:
        """The queue's full state as one JSON-compatible object.

        The machine-readable face of :meth:`status`, shared by
        ``python -m repro.dispatch status --json`` and the campaign
        service's job-status endpoints, so the two surfaces cannot drift.
        """
        statuses = self.status()
        states = [status.state.value for status in statuses]
        runs_done = sum(
            self.plan.runs_per_shard(status.shard)
            for status in statuses
            if status.state is ShardState.DONE
        )
        return {
            "name": self.plan.name,
            "fingerprint": self.plan.fingerprint,
            "context": self.plan.context,
            "platform": self.plan.platform,
            "systems": [system.name for system in self.plan.systems],
            "suite_count": self.plan.suite_count,
            "repetitions": self.plan.repetitions,
            "faults": [spec.name for spec in self.plan.faults],
            "total_runs": self.plan.total_runs,
            "runs_done": runs_done,
            "records": sum(status.records or 0 for status in statuses),
            "shard_states": {
                state.value: states.count(state.value) for state in ShardState
            },
            "all_done": states.count(ShardState.DONE.value) == len(statuses),
            "shards": [status.to_dict() for status in statuses],
        }

    # ------------------------------------------------------------------ #
    def claim(
        self, worker_id: str, lease_seconds: float = DEFAULT_LEASE_SECONDS
    ) -> ShardLease | None:
        """Claim the first claimable shard, or ``None`` when there is none.

        Claimable: no ``done.json`` and either no lease or a stale one.
        """
        for shard in self.plan.shards:
            if self.read_done(shard) is not None:
                continue
            lease = self._try_claim(shard, worker_id, lease_seconds)
            if lease is not None:
                return lease
        return None

    def _try_claim(
        self, shard: ShardSpec, worker_id: str, lease_seconds: float
    ) -> ShardLease | None:
        path = self.lease_path(shard)
        token = f"{worker_id}-{uuid.uuid4().hex}"
        lease = ShardLease(self, shard, worker_id, lease_seconds, token)
        claims = METRICS.counter(
            "repro_dispatch_claims_total", "Shard claim attempts by outcome."
        )
        via = "fresh"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            observed, heartbeat = self._lease_heartbeat(shard)
            if heartbeat is None:
                return None  # released between our listing and now; next pass
            current_lease = float(
                (observed or {}).get("lease_seconds", lease_seconds)
            )
            if time.time() - heartbeat <= current_lease:
                return None  # alive owner
            # Stale: the rename is atomic, so at most one contender grabs any
            # given lease file — but the file could have been *replaced* (a
            # rival's win, or the stalled owner's recovered heartbeat) between
            # our staleness check and the rename, so verify we grabbed the
            # lease we actually observed stale before treating it as ours.
            evicted = path.with_name(f"{path.name}.evicted-{token}")
            try:
                os.rename(path, evicted)
            except FileNotFoundError:
                return None  # another contender won (or the owner released)
            grabbed = self._parse_lease(evicted)
            identity = lambda p: (p.get("token"), p.get("heartbeat_at")) if p else None
            if identity(grabbed) != identity(observed):
                # We displaced a *fresh* lease; restore it without clobbering
                # any newer claim (link fails if one appeared — the displaced
                # owner's next heartbeat then raises LeaseLostError, so the
                # shard still has exactly one owner).
                try:
                    os.link(evicted, path)
                except FileExistsError:
                    pass
                evicted.unlink()
                return None
            evicted.unlink()
            via = "stolen"
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return None  # lost the re-create race to a fresh claimer
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(lease._payload(), handle, sort_keys=True)
            handle.write("\n")
        # A worker can die after done.json but before releasing its lease;
        # the claim then succeeds on a finished shard — hand it straight back.
        if self.read_done(shard) is not None:
            lease.release()
            return None
        claims.inc(result=via)
        return lease
