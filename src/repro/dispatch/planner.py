"""Deterministic shard planning for distributed campaign dispatch.

A *dispatch plan* splits one campaign — a scenario suite x systems x
repetitions grid with a fixed mission config and platform — into contiguous,
content-fingerprinted shards that independent workers can claim and execute
(see :mod:`repro.dispatch.queue` / :mod:`repro.dispatch.worker`).

The plan is plain files under one directory, which is the whole coordination
surface — workers on any machine that shares the directory (NFS, a synced
volume, or just the same host) can join::

    <dir>/plan.json                  the plan: systems, mission, shards
    <dir>/suite.jsonl                the exact scenarios (canonical JSONL)
    <dir>/shards/shard-0000/         one directory per shard
        manifest.json                the shard's slice + fingerprints
        results/                     Campaign.out(...) persistence (resume!)
        lease.json                   worker claim + heartbeat (queue.py)
        done.json                    completion marker with record counts

Everything is content-fingerprinted: the plan fingerprint pins suite
contents, systems, repetitions, mission and platform, and each shard
manifest pins its scenario slice, so a worker or merger can always tell a
stale directory from a resumable one.  Planning is deterministic — the same
campaign always produces byte-identical plan files.
"""

from __future__ import annotations

import json
from dataclasses import asdict as dataclasses_asdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.bench.campaign import (
    PLATFORM_FACTORIES,
    campaign_context_fingerprint,
)
from repro.core.config import LandingSystemConfig
from repro.core.mission import MissionConfig
from repro.faults.spec import FaultSpec
from repro.jsonl import sha16_of_json as _sha16, write_json_atomic
from repro.world.scenario_suite import ScenarioSuite

#: Schema version stamped into plan.json / manifest.json.  Version 2 added
#: the optional ``faults`` list (the campaign's fault-injection axis);
#: fault-free plans keep identical fingerprints across versions, so
#: existing dispatch directories remain resumable.
PLAN_SCHEMA_VERSION = 2

#: Filenames under the dispatch directory.
PLAN_FILENAME = "plan.json"
SUITE_FILENAME = "suite.jsonl"
SHARDS_DIRNAME = "shards"
MERGED_DIRNAME = "merged"


def suite_fingerprint(suite: ScenarioSuite) -> str:
    """Content hash of a suite's scenarios (order-sensitive)."""
    return _sha16([scenario.fingerprint() for scenario in suite])


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a contiguous scenario slice of the plan's suite."""

    index: int
    start: int
    stop: int
    scenario_ids: tuple[str, ...]
    fingerprint: str

    @property
    def name(self) -> str:
        return f"shard-{self.index:04d}"

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses_asdict(self)
        data["scenario_ids"] = list(self.scenario_ids)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardSpec":
        return cls(
            index=int(data["index"]),
            start=int(data["start"]),
            stop=int(data["stop"]),
            scenario_ids=tuple(data["scenario_ids"]),
            fingerprint=str(data["fingerprint"]),
        )


@dataclass
class DispatchPlan:
    """The persisted description of one sharded campaign."""

    name: str
    systems: list[LandingSystemConfig]
    repetitions: int
    mission: MissionConfig
    platform: str
    suite_count: int
    suite_fingerprint: str
    shards: list[ShardSpec] = field(default_factory=list)
    faults: list[FaultSpec] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def context(self) -> str:
        """The campaign context fingerprint shard result headers must carry."""
        return campaign_context_fingerprint(self.mission, self.platform, self.faults)

    def identity(self) -> dict[str, Any]:
        """The fingerprint-relevant content (shared by plan and shard hashes)."""
        identity: dict[str, Any] = {
            "suite_fingerprint": self.suite_fingerprint,
            "systems": [system.to_dict() for system in self.systems],
            "repetitions": self.repetitions,
            "mission": dataclasses_asdict(self.mission),
            "platform": self.platform,
        }
        # Included only when declared: fault-free plan fingerprints must not
        # change across versions (idempotent re-planning into old dirs).
        if self.faults:
            identity["faults"] = [spec.to_dict() for spec in self.faults]
        return identity

    def compute_fingerprint(self) -> str:
        """The fingerprint this plan's contents *should* carry.

        Recomputed on load so an edited plan.json whose stored fingerprint
        was not updated is refused, not silently flown.
        """
        return _sha16({**self.identity(), "shards": len(self.shards)})

    @property
    def total_runs(self) -> int:
        return self.suite_count * self.repetitions * len(self.systems)

    def runs_per_shard(self, shard: ShardSpec) -> int:
        return (shard.stop - shard.start) * self.repetitions * len(self.systems)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        data = {
            "kind": "dispatch-plan",
            # A fault-free plan still declares schema 1, so pre-fault readers
            # keep accepting it; only plans that *need* the faults key claim 2.
            "schema": PLAN_SCHEMA_VERSION if self.faults else 1,
            "name": self.name,
            "systems": [system.to_dict() for system in self.systems],
            "repetitions": self.repetitions,
            "mission": dataclasses_asdict(self.mission),
            "platform": self.platform,
            "context": self.context,
            "suite_file": SUITE_FILENAME,
            "suite_count": self.suite_count,
            "suite_fingerprint": self.suite_fingerprint,
            "shards": [shard.to_dict() for shard in self.shards],
        }
        if self.faults:
            data["faults"] = [spec.to_dict() for spec in self.faults]
        data["fingerprint"] = self.fingerprint
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DispatchPlan":
        if data.get("kind") != "dispatch-plan":
            raise ValueError(f"not a dispatch plan (kind={data.get('kind')!r})")
        schema = int(data.get("schema", 1))
        if schema > PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"dispatch plan uses schema {schema}, but this version reads "
                f"at most schema {PLAN_SCHEMA_VERSION}; upgrade to read it"
            )
        return cls(
            name=str(data["name"]),
            systems=[LandingSystemConfig.from_dict(d) for d in data["systems"]],
            repetitions=int(data["repetitions"]),
            mission=MissionConfig(**data["mission"]),
            platform=str(data["platform"]),
            suite_count=int(data["suite_count"]),
            suite_fingerprint=str(data["suite_fingerprint"]),
            shards=[ShardSpec.from_dict(d) for d in data["shards"]],
            faults=[FaultSpec.from_dict(d) for d in data.get("faults", [])],
            fingerprint=str(data.get("fingerprint", "")),
        )


# ---------------------------------------------------------------------- #
# directory layout
# ---------------------------------------------------------------------- #
def plan_path(directory: str | Path) -> Path:
    return Path(directory) / PLAN_FILENAME


def suite_path(directory: str | Path) -> Path:
    return Path(directory) / SUITE_FILENAME


def shard_dir(directory: str | Path, shard: ShardSpec) -> Path:
    return Path(directory) / SHARDS_DIRNAME / shard.name


def shard_results_dir(directory: str | Path, shard: ShardSpec) -> Path:
    return shard_dir(directory, shard) / "results"


def merged_dir(directory: str | Path) -> Path:
    return Path(directory) / MERGED_DIRNAME


# ---------------------------------------------------------------------- #
# planning
# ---------------------------------------------------------------------- #
def _partition(count: int, shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous [start, stop) slices; earlier shards get the rest."""
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    slices: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def _build_plan(
    suite: ScenarioSuite,
    systems: Sequence[LandingSystemConfig],
    shards: int,
    repetitions: int,
    mission: MissionConfig,
    platform: str,
    faults: Sequence[FaultSpec] = (),
) -> DispatchPlan:
    scenario_fingerprints = [scenario.fingerprint() for scenario in suite]
    plan = DispatchPlan(
        name=suite.name or "campaign",
        systems=list(systems),
        repetitions=repetitions,
        mission=mission,
        platform=platform,
        suite_count=len(suite),
        suite_fingerprint=_sha16(scenario_fingerprints),
        faults=list(faults),
    )
    base_identity = plan.identity()
    scenario_ids = [scenario.scenario_id for scenario in suite]
    for index, (start, stop) in enumerate(_partition(len(suite), shards)):
        plan.shards.append(
            ShardSpec(
                index=index,
                start=start,
                stop=stop,
                scenario_ids=tuple(scenario_ids[start:stop]),
                fingerprint=_sha16(
                    {
                        **base_identity,
                        "start": start,
                        "stop": stop,
                        "scenarios": scenario_fingerprints[start:stop],
                    }
                ),
            )
        )
    plan.fingerprint = plan.compute_fingerprint()
    return plan


def build_plan(
    suite: ScenarioSuite,
    systems: Sequence[LandingSystemConfig],
    *,
    shards: int,
    repetitions: int | None = None,
    mission: MissionConfig | None = None,
    platform: str = "desktop",
    faults: Sequence[FaultSpec] = (),
) -> DispatchPlan:
    """Validate and build a dispatch plan in memory (no files written).

    The pure half of :func:`plan_dispatch`: planning is deterministic, so
    callers that need a campaign's *identity* before (or without) touching
    disk — the campaign service deduplicates submissions by the resulting
    plan fingerprint — build the plan here and write it later.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    if len(suite) == 0:
        raise ValueError("cannot dispatch an empty suite")
    if not systems:
        raise ValueError("cannot dispatch without systems")
    if platform not in PLATFORM_FACTORIES:
        raise ValueError(
            f"unknown platform {platform!r}; expected one of {sorted(PLATFORM_FACTORIES)}"
        )
    names = [system.name for system in systems]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate system names {duplicates}: give each system a "
            f"distinct name (LandingSystemConfig.custom(..., name=...))"
        )
    if repetitions is None:
        repetitions = suite.repetitions
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    return _build_plan(
        suite, systems, shards, repetitions, mission or MissionConfig(), platform,
        faults=faults,
    )


def plan_dispatch(
    directory: str | Path,
    suite: ScenarioSuite,
    systems: Sequence[LandingSystemConfig],
    *,
    shards: int,
    repetitions: int | None = None,
    mission: MissionConfig | None = None,
    platform: str = "desktop",
    faults: Sequence[FaultSpec] = (),
) -> DispatchPlan:
    """Plan (or re-join) a sharded campaign under ``directory``.

    Idempotent: planning the same campaign into a directory that already
    holds an identical plan returns the existing plan, so every worker — and
    a re-run of the whole dispatch — can call this unconditionally.  A
    directory holding a *different* plan is refused.
    """
    directory = Path(directory)
    plan = build_plan(
        suite,
        systems,
        shards=shards,
        repetitions=repetitions,
        mission=mission,
        platform=platform,
        faults=faults,
    )
    existing_path = plan_path(directory)
    if existing_path.exists():
        existing = load_plan(directory)
        if existing.fingerprint != plan.fingerprint:
            raise ValueError(
                f"{directory} already holds a different dispatch plan "
                f"({existing.fingerprint} != {plan.fingerprint}); use a fresh "
                f"directory or delete the stale plan"
            )
        return existing

    suite.to_jsonl(suite_path(directory))
    for shard in plan.shards:
        shard_results_dir(directory, shard).mkdir(parents=True, exist_ok=True)
        write_json_atomic(
            shard_dir(directory, shard) / "manifest.json",
            {
                "kind": "shard-manifest",
                # Same claim as plan.json: a fault-free dispatch stays
                # readable by pre-fault schema gates end to end.
                "schema": PLAN_SCHEMA_VERSION if plan.faults else 1,
                "plan": plan.fingerprint,
                **shard.to_dict(),
            },
        )
    # The plan file is written last: a directory without plan.json is
    # unambiguously not (yet) a dispatch directory, however far a previous
    # planner got before dying.
    write_json_atomic(existing_path, plan.to_dict(), indent=2)
    return plan


# ---------------------------------------------------------------------- #
# loading
# ---------------------------------------------------------------------- #
def load_plan(directory: str | Path) -> DispatchPlan:
    """Load and verify ``<directory>/plan.json``."""
    path = plan_path(directory)
    if not path.exists():
        raise FileNotFoundError(
            f"{path} not found: not a dispatch directory (run "
            f"`python -m repro.dispatch plan` first)"
        )
    try:
        plan = DispatchPlan.from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"{path}: malformed dispatch plan: {error}") from error
    expected = plan.compute_fingerprint()
    if plan.fingerprint != expected:
        raise ValueError(
            f"{path} does not match its own fingerprint "
            f"({plan.fingerprint} != {expected}): the plan was edited or "
            f"corrupted after planning; re-plan into a fresh directory"
        )
    covered = [(shard.start, shard.stop) for shard in plan.shards]
    if covered != _partition(plan.suite_count, len(plan.shards)) or any(
        len(shard.scenario_ids) != shard.stop - shard.start for shard in plan.shards
    ):
        raise ValueError(
            f"{path}: shard slices do not partition the {plan.suite_count}-scenario "
            f"suite; the plan was edited or corrupted after planning"
        )
    return plan


def load_suite(directory: str | Path, plan: DispatchPlan | None = None) -> ScenarioSuite:
    """Load ``<directory>/suite.jsonl``, verified against the plan fingerprint."""
    if plan is None:
        plan = load_plan(directory)
    suite = ScenarioSuite.from_jsonl(suite_path(directory))
    actual = suite_fingerprint(suite)
    if actual != plan.suite_fingerprint:
        raise ValueError(
            f"{suite_path(directory)} does not match the plan "
            f"(suite fingerprint {actual} != {plan.suite_fingerprint}); the "
            f"dispatch directory has been tampered with or mixed up"
        )
    return suite
