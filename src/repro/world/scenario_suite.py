"""The paper's evaluation suite: 10 maps x 10 scenarios, half adverse weather.

"We created 10 simulation maps [...] encompassing both rural, suburban and
urban areas.  For each map, we generated 10 distinct test scenarios, equally
divided between normal and adverse weather conditions." (§IV.B.1)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.jsonl import read_jsonl_frame, write_jsonl_frame
from repro.world.map_generator import MapStyle
from repro.world.scenario import Scenario

#: Schema version stamped into suite JSONL headers.
SUITE_SCHEMA_VERSION = 1

#: Style of each of the ten evaluation maps.  Mirrors the paper's mix of
#: rural, suburban and urban areas.
DEFAULT_MAP_STYLES: tuple[MapStyle, ...] = (
    MapStyle.RURAL,
    MapStyle.RURAL,
    MapStyle.RURAL,
    MapStyle.SUBURBAN,
    MapStyle.SUBURBAN,
    MapStyle.SUBURBAN,
    MapStyle.SUBURBAN,
    MapStyle.URBAN,
    MapStyle.URBAN,
    MapStyle.URBAN,
)


@dataclass
class ScenarioSuite:
    """An ordered collection of scenarios plus the repetition count."""

    scenarios: list[Scenario] = field(default_factory=list)
    repetitions: int = 3
    name: str = ""

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    @property
    def total_runs(self) -> int:
        return len(self.scenarios) * self.repetitions

    @property
    def adverse_count(self) -> int:
        return sum(1 for s in self.scenarios if s.is_adverse_weather)

    def subset(self, count: int) -> "ScenarioSuite":
        """A smaller suite keeping the normal/adverse interleaving.

        Used by the test suite and the quick benchmark presets, which cannot
        afford the full 100-scenario campaign.
        """
        if count <= 0:
            raise ValueError("subset count must be positive")
        step = max(1, len(self.scenarios) // count)
        picked = self.scenarios[::step][:count]
        return ScenarioSuite(scenarios=picked, repetitions=self.repetitions, name=self.name)

    def slice(self, start: int, stop: int) -> "ScenarioSuite":
        """The contiguous sub-suite covering scenarios ``[start, stop)``.

        Unlike :meth:`subset` (which strides to keep the normal/adverse
        interleaving) this preserves suite order exactly, which is what the
        dispatch shard planner needs: concatenating every shard's slice in
        shard order reproduces the full suite.
        """
        if not 0 <= start < stop <= len(self.scenarios):
            raise ValueError(
                f"invalid slice [{start}, {stop}) of a {len(self.scenarios)}-scenario suite"
            )
        return ScenarioSuite(
            scenarios=self.scenarios[start:stop],
            repetitions=self.repetitions,
            name=self.name,
        )

    # ------------------------------------------------------------------ #
    # persistence (JSON Lines: one header line, then one scenario per line)
    # ------------------------------------------------------------------ #
    def to_jsonl(self, path: str | Path) -> Path:
        """Write the suite as JSONL and return the path.

        The serialization is canonical (sorted keys, fixed separators), so a
        deterministic generator produces byte-identical files for the same
        seed — which is what makes suites diffable across machines and CI
        runs.
        """
        header = {
            "kind": "scenario-suite",
            "schema": SUITE_SCHEMA_VERSION,
            "name": self.name,
            "repetitions": self.repetitions,
            "count": len(self.scenarios),
        }
        return write_jsonl_frame(path, header, [s.to_dict() for s in self.scenarios])

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ScenarioSuite":
        """Load a suite written by :meth:`to_jsonl`."""
        path = Path(path)
        header, payload = read_jsonl_frame(path, "scenario-suite", SUITE_SCHEMA_VERSION)
        scenarios = [Scenario.from_dict(json.loads(line)) for line in payload]
        if header.get("count") is not None and header["count"] != len(scenarios):
            raise ValueError(
                f"{path} header claims {header['count']} scenarios, found {len(scenarios)}"
            )
        return cls(
            scenarios=scenarios,
            repetitions=int(header.get("repetitions", 1)),
            name=str(header.get("name", "")),
        )


def build_evaluation_suite(
    map_count: int = 10,
    scenarios_per_map: int = 10,
    repetitions: int = 3,
    base_seed: int = 2025,
    map_styles: tuple[MapStyle, ...] = DEFAULT_MAP_STYLES,
) -> ScenarioSuite:
    """Build the 10x10 evaluation suite (100 scenarios, 300 runs by default).

    Scenario seeds are derived deterministically from ``base_seed`` so the
    whole campaign is reproducible.  Within each map the first half of the
    scenarios uses normal weather and the second half adverse weather.
    """
    if map_count <= 0 or scenarios_per_map <= 0:
        raise ValueError("map_count and scenarios_per_map must be positive")

    scenarios: list[Scenario] = []
    for map_index in range(map_count):
        style = map_styles[map_index % len(map_styles)]
        map_seed = base_seed + map_index
        for scenario_index in range(scenarios_per_map):
            adverse = scenario_index >= scenarios_per_map / 2
            seed = base_seed * 1000 + map_index * 100 + scenario_index
            scenario_id = f"map{map_index:02d}-s{scenario_index:02d}"
            scenarios.append(
                Scenario.generate(
                    scenario_id=scenario_id,
                    map_style=style,
                    map_seed=map_seed,
                    adverse_weather=adverse,
                    seed=seed,
                )
            )
    return ScenarioSuite(scenarios=scenarios, repetitions=repetitions, name="paper")
