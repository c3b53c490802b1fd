"""The benchmark's workloads: fixed paper-suite campaigns and how to fly them.

Every workload is a closed loop: one campaign at a time, from one process,
each campaign starting only after the previous one returned its records.

* ``v3-paper`` — MLS-V3 (learned detector, OctoMap, RRT*), serial.  Map and
  plan dominate its wall time.
* ``v1-paper`` — MLS-V1 (classical detector, no mapper, straight line) on
  the same slice, serial.  Sensing, detection and physics dominate; it is
  the control for mapping and planning changes.
* ``v2-faults-dispatch`` — MLS-V2 (learned detector, dense grid, EGO local
  A*) under the ``autonomy`` fault plan, planned into shards that two local
  worker processes drain, merged, and summarised by ``CampaignAnalysis``.

The scenarios are a fixed slice of the paper suite (suite seed 2025 unless
``--suite-seed`` says otherwise): for V3 and V1 one normal-weather and one
adverse-weather scenario, which keeps a V3 campaign near 10-15 s on a
2-core machine; for the V2 dispatch the stride-8 ``subset(12)``.  The run seed only orders the flights:
it shuffles the slice, and for dispatch it shuffles within each shard so
that every shard keeps the same scenarios.  The amount of work is thus the
same on every seed and throughput figures from different seeds compare,
while the order (and so every process-wide cache's fill order) changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: The paper seed: the suite every committed expectation was flown on.
PAPER_SEED = 2025

PAPER_PAIR = ("map00-s00", "map02-s05")
PAPER_TWELVE = (
    "map00-s00", "map00-s08", "map01-s06", "map02-s04", "map03-s02", "map04-s00",
    "map04-s08", "map05-s06", "map06-s04", "map07-s02", "map08-s00", "map08-s08",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro.core.config.preset`` key.
    system: str
    #: Scenario ids of the paper suite, in suite order.
    scenarios: tuple[str, ...]
    #: Fault preset injected into every run, or ``None``.
    faults: str | None = None
    #: Dispatch shards (0: a serial ``Campaign.run``).
    shards: int = 0
    #: Local dispatch worker processes.
    workers: int = 0

    @property
    def dispatched(self) -> bool:
        return self.shards > 0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("v3-paper", "mls-v3", PAPER_PAIR),
        Workload("v1-paper", "mls-v1", PAPER_PAIR),
        Workload(
            "v2-faults-dispatch", "mls-v2", PAPER_TWELVE,
            faults="autonomy", shards=4, workers=2,
        ),
    )
}


def record_key(record) -> str:
    return f"{record.scenario_id}#{record.repetition}"


def record_data(record) -> dict[str, Any]:
    """``RunRecord.to_dict()`` minus ``scenario_fingerprint``, which only
    persisted (dispatched) campaigns stamp, normalised through JSON."""
    data = record.to_dict()
    data.pop("scenario_fingerprint", None)
    return json.loads(json.dumps(data, sort_keys=True))


class Flight:
    """One workload, ready to fly campaigns (built once per process)."""

    def __init__(self, workload: Workload, suite_seed: int, quick: bool) -> None:
        from repro import preset
        from repro.core.registry import DETECTOR, REGISTRY
        from repro.perception.neural.training import load_pretrained_detector_net
        from repro.world.scenario_gen import generate_suite
        from repro.world.scenario_suite import ScenarioSuite

        self.workload = workload
        self.system = preset(workload.system)
        wanted = workload.scenarios[:1] if quick else workload.scenarios
        paper = generate_suite("paper", seed=suite_seed)
        self.suite = ScenarioSuite(
            scenarios=[s for s in paper.scenarios if s.scenario_id in wanted],
            repetitions=1,
            name=paper.name,
        )
        self.shards = min(workload.shards, len(wanted))
        if workload.dispatched:
            # Campaign.dispatch and the report import these on first use;
            # a fresh campaign process pays that once, before its first
            # mission, so it belongs to set-up, not to the first campaign.
            import repro.analysis.engine  # noqa: F401
            import repro.dispatch.merge  # noqa: F401
            import repro.dispatch.planner  # noqa: F401
            import repro.dispatch.worker  # noqa: F401
            import repro.faults.harness  # noqa: F401
        if REGISTRY.spec(DETECTOR, self.system.detector).metadata.get("needs_network"):
            # Campaign.run would load it before the first mission; loading
            # here makes the warmed disk-cache read part of set-up.
            load_pretrained_detector_net()

    def ordered(self, seed: int):
        """The slice in this run's flight order (see the module docstring)."""
        from repro.world.scenario_suite import ScenarioSuite

        scenarios = list(self.suite.scenarios)
        block = len(scenarios) // self.shards if self.shards else len(scenarios)
        rng = random.Random(seed)
        ordered = []
        for start in range(0, len(scenarios), block):
            chunk = scenarios[start : start + block]
            rng.shuffle(chunk)
            ordered.extend(chunk)
        return ScenarioSuite(scenarios=ordered, repetitions=1, name=self.suite.name)

    def fly(self, suite, directory: Path, between=None, trace_dir=None) -> tuple[list, str | None]:
        """Fly one campaign; returns its records and, for dispatch, the
        rendered analysis report.  A serial campaign calls ``between``
        after every mission; ``trace_dir`` turns on the program's own
        flight recorder (``Campaign.trace``)."""
        from repro import Campaign

        campaign = Campaign(self.system).suite(suite).repetitions(1).trace(trace_dir)
        if self.workload.faults:
            campaign.faults(self.workload.faults)
        if not self.workload.dispatched:
            campaign.progress(between)
            return campaign.run()[self.system.name].records, None
        from repro.analysis.engine import CampaignAnalysis

        results = campaign.dispatch(directory, shards=self.shards, workers=self.workload.workers)
        report = CampaignAnalysis(results, suites=[suite]).report()
        return results[self.system.name].records, report

    def render_report(self, records_data: list[dict[str, Any]], suite) -> str:
        """The report ``fly`` should render for these records in this order."""
        from repro.analysis.engine import CampaignAnalysis
        from repro.core.metrics import CampaignResult, RunRecord

        result = CampaignResult(system_name=self.system.name)
        for data in records_data:
            result.add(RunRecord.from_dict(data))
        return CampaignAnalysis({self.system.name: result}, suites=[suite]).report()


# ---------------------------------------------------------------------- #
# committed expectations
# ---------------------------------------------------------------------- #
def expected_path(directory: Path, workload: Workload) -> Path:
    return directory / f"{workload.name}.json"


def report_path(directory: Path, workload: Workload) -> Path:
    return directory / f"{workload.name}.report.md"


def load_expected(directory: Path, workload: Workload, suite_seed: int) -> dict[str, Any] | None:
    """Expected records keyed by ``scenario#repetition``, or ``None`` when
    none were committed for this suite seed."""
    path = expected_path(directory, workload)
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data["suite_seed"] != suite_seed:
        return None
    return data["records"]
