"""Compare the three system generations on the same scenarios (mini Table I).

This is the paper's RQ1 experiment at example scale: a handful of scenarios,
each flown by MLS-V1 (OpenCV, no avoidance), MLS-V2 (TPH-YOLO + EGO-Planner)
and MLS-V3 (TPH-YOLO + OctoMap + RRT*), with the outcome table printed at the
end.  Increase SCENARIOS for a closer approximation of Table I.

Run with:  python examples/compare_generations.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.campaign import Campaign
from repro.bench.tables import render_detection_table, render_landing_table

SCENARIOS = int(os.environ.get("SCENARIOS", "4"))


def main() -> None:
    print(f"Running {SCENARIOS} scenarios x 3 system generations (this takes a few minutes)...\n")
    results = (
        Campaign()
        .scenarios(SCENARIOS)
        .repetitions(1)
        .progress(lambda line: print("  " + line))
        .run()
    )

    print()
    print(render_landing_table(results))
    print()
    print(render_detection_table(results))


if __name__ == "__main__":
    main()
