"""Outside-in layer spans: timing wrappers installed around public entry points.

The traced run replaces the class (or module) attributes listed in
:data:`TARGETS` with wrappers that time every call and keep per-span
aggregates in memory: call counts, *self* time (the span minus the part of
it covered by nested timed calls) and a few work counts read off arguments
and return values.  Nothing under ``src/`` is edited and the untraced run
never imports this module, so untraced timings carry no wrapper cost.

Self time is what makes the layers add up: an RRT* edge check
(``InflatedMap.segment_colliding``) nested inside ``RrtStarPlanner.plan``
is charged to mapping, and the planner call nested inside
``LandingSystem.decide`` is charged to planning, not core.

Dispatch workers are forked from the traced process, so they inherit the
wrappers.  Each worker resets its copy of the aggregates when its
``run_worker`` loop starts and hands them back, as a JSON file in
``handoff_dir``, when the loop returns.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: (module, owner attribute or None for a module function, callable name,
#: span name).  Span names are ``<layer>.<entry point>``.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.vehicle.autopilot", "Autopilot", "step", "vehicle.step"),
    ("repro.world.world", "World", "colliding_obstacle", "world.collision"),
    ("repro.sensors.camera", "DownwardCamera", "capture", "sensors.camera"),
    ("repro.sensors.depth", "DepthCamera", "capture", "sensors.depth"),
    ("repro.core.landing_system", "LandingSystem", "process_frame", "perception.frame"),
    ("repro.core.landing_system", "LandingSystem", "process_cloud", "mapping.fuse"),
    ("repro.mapping.inflation", "InflatedMap", "segment_colliding", "mapping.collision"),
    ("repro.mapping.inflation", "InflatedMap", "path_colliding", "mapping.collision"),
    ("repro.planning.rrt_star", "RrtStarPlanner", "plan", "planning.plan"),
    ("repro.planning.ego_planner", "EgoLocalPlanner", "plan", "planning.plan"),
    ("repro.planning.astar", "AStarPlanner", "plan", "planning.plan"),
    ("repro.planning.straight_line", "StraightLinePlanner", "plan", "planning.plan"),
    ("repro.core.landing_system", "LandingSystem", "decide", "core.decide"),
    ("repro.core.mission", "MissionRunner", "run", "core.mission"),
    ("repro.faults.harness", "FaultHarness", "filter_estimate", "faults.call"),
    ("repro.faults.harness", "FaultHarness", "filter_frame", "faults.call"),
    ("repro.faults.harness", "FaultHarness", "filter_cloud", "faults.call"),
    ("repro.faults.harness", "FaultHarness", "filter_command", "faults.call"),
    ("repro.faults.harness", "FaultHarness", "corrupt_mapping", "faults.call"),
    ("repro.dispatch.planner", None, "plan_dispatch", "dispatch.plan"),
    ("repro.dispatch.worker", None, "run_worker", "dispatch.worker"),
    # Not a layer metric: the parent's wait for its workers, timed so that
    # it is not mistaken for campaign bookkeeping.
    ("repro.dispatch.worker", None, "run_local_workers", "dispatch.drain"),
    ("repro.dispatch.merge", None, "merge_dispatch", "dispatch.merge"),
    ("repro.analysis.engine", "CampaignAnalysis", "report", "analysis.report"),
    ("repro.bench.campaign", "Campaign", "run", "bench.campaign"),
    ("repro.bench.campaign", "Campaign", "dispatch", "bench.campaign"),
)

#: Spans whose every duration is kept (the rest are only summed).
SAMPLED = ("planning.plan", "core.decide", "core.mission")

#: Spans kept whole (name, start, end, parent, pid) for the written trace.
COARSE = (
    "core.mission",
    "dispatch.plan",
    "dispatch.worker",
    "dispatch.drain",
    "dispatch.merge",
    "analysis.report",
    "bench.campaign",
)


class Tracer:
    """In-memory span aggregates of one process."""

    def __init__(self, handoff_dir: str | Path) -> None:
        self.handoff_dir = Path(handoff_dir)
        #: The traced process itself; any other pid is a forked worker.
        self.owner_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self._stack: list[list[Any]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict[str, Any]] = []
        self.campaign = 0

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Replace every target with its timing wrapper."""
        for module_name, owner_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            setattr(owner, attr, self._wrap(getattr(owner, attr), span))

    def _wrap(self, original: Callable, span: str) -> Callable:
        observe = _OBSERVERS.get(span)
        coarse = span in COARSE
        sampled = span in SAMPLED
        forked_worker = span == "dispatch.worker"

        def timed(*args, **kwargs):
            in_worker = forked_worker and os.getpid() != self.owner_pid
            if in_worker and os.getpid() != self.pid:
                # First traced call in a forked dispatch worker: drop the
                # parent's aggregates inherited at fork.
                campaign = self.campaign
                self.reset()
                self.campaign = campaign
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][1] += total
                self.self_s[span] += total - frame[1]
                self.calls[span] += 1
            if sampled and parent != span:
                self.samples[span].append(total)
            if observe is not None:
                observe(self, parent, args, result)
            if coarse:
                self.spans.append(
                    {"name": span, "start": start, "end": end, "parent": parent,
                     "pid": self.pid, "campaign": self.campaign}
                )
            if in_worker:
                self.handoff()
            elif stack:
                # The bookkeeping above is no layer's work: keep it out of
                # the enclosing span's self time.
                stack[-1][1] += perf_counter() - end
            return result

        timed.__wrapped__ = original
        return timed

    # ------------------------------------------------------------------ #
    def handoff(self) -> None:
        """Write this worker's aggregates for the traced parent to merge."""
        self.handoff_dir.mkdir(parents=True, exist_ok=True)
        path = self.handoff_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)

    def collect_handoffs(self) -> None:
        """Merge (and remove) every worker hand-off written so far."""
        for path in sorted(self.handoff_dir.glob("worker-*.json")):
            self.merge(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()

    def snapshot(self) -> dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "samples": {key: list(values) for key, values in self.samples.items()},
            "spans": list(self.spans),
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        for key, value in snapshot["calls"].items():
            self.calls[key] += value
        for key, value in snapshot["self_s"].items():
            self.self_s[key] += value
        for key, value in snapshot["counts"].items():
            self.counts[key] += value
        for key, values in snapshot["samples"].items():
            self.samples[key].extend(values)
        self.spans.extend(snapshot["spans"])


def install(handoff_dir: str | Path) -> Tracer:
    """Create a tracer, install its wrappers and return it."""
    tracer = Tracer(handoff_dir)
    tracer.install()
    return tracer


# ---------------------------------------------------------------------- #
# work counts read off arguments and results
# ---------------------------------------------------------------------- #
def _depth(tracer: Tracer, parent, args, cloud) -> None:
    tracer.counts["sensors.depth_points"] += len(cloud)


def _frame(tracer: Tracer, parent, args, result) -> None:
    system = args[0]
    tracer.counts["perception.proposals"] += len(result.detections)
    if result.best_for(system.target_marker_id) is not None:
        tracer.counts["perception.target_frames"] += 1


def _fuse(tracer: Tracer, parent, args, result) -> None:
    tracer.counts["mapping.points_fused"] += len(args[1])


def _plan(tracer: Tracer, parent, args, result) -> None:
    if parent == "planning.plan":
        return  # a planner nested in another (EGO's local A*): count once
    tracer.counts["planning.plans"] += 1
    tracer.counts["planning.iterations"] += int(result.iterations)
    tracer.counts["planning.successes"] += int(bool(result.succeeded))


def _mission(tracer: Tracer, parent, args, record) -> None:
    # Read after the span closed, in time no layer is charged for.
    system = args[0].system
    primary = system.mapping.primary
    if primary is not None and hasattr(primary, "occupied_voxel_count"):
        tracer.counts["mapping.occupied_voxels"] += int(primary.occupied_voxel_count())
    tracer.samples["mapping.map_bytes"].append(float(system.map_memory_bytes()))
    tracer.counts["faults.activations"] += sum(
        1 for fault in record.injected_faults if fault.get("activated")
    )


_OBSERVERS: dict[str, Callable] = {
    "sensors.depth": _depth,
    "perception.frame": _frame,
    "mapping.fuse": _fuse,
    "planning.plan": _plan,
    "core.mission": _mission,
}
