"""Reproduction of "Towards Robust Autonomous Landing Systems" (DSN 2025).

A pure-Python reproduction of the paper's marker-based autonomous UAV landing
system and its evaluation: three system generations (MLS-V1/V2/V3), a
simulated world / flight stack / sensor suite standing in for AirSim + PX4,
from-scratch marker detection (classical and learned), occupancy mapping
(dense grid and octree), path planning (local A* and RRT*), the decision
state machine, and the SIL / HIL / real-world campaign harness.

Systems are composed through a pluggable component registry, so the ablation
surface is the full detector x mapper x planner grid (plus anything you
register yourself), not just the paper's three presets.

Quickstart — one mission::

    from repro import mls_v3, build_evaluation_suite, run_scenario

    suite = build_evaluation_suite()
    record = run_scenario(suite.scenarios[0], mls_v3())
    print(record.outcome, record.landing_error)

Quickstart — a parallel campaign over a custom composition::

    from repro import Campaign, LandingSystemConfig, mls_v1

    hybrid = LandingSystemConfig.custom(
        detector="opencv", mapper="dense-grid", planner="ego-local-astar",
        name="V1.5-hybrid",
    )
    results = Campaign(mls_v1(), hybrid).scenarios(4).parallel(4).run()
    for name, campaign in results.items():
        print(name, f"{campaign.success_rate:.0%}")

Quickstart — registering a custom component::

    from repro import register_detector

    @register_detector("my-detector", latency=0.02)
    def build_my_detector(ctx):
        return MyDetector(seed=ctx.seed)

    config = LandingSystemConfig.custom(detector="my-detector")
"""

from repro.analysis import (
    CampaignAnalysis,
    CampaignComparison,
    SystemSummary,
    summarize_records,
    wilson_interval,
)
from repro.bench.campaign import Campaign
from repro.core.config import (
    LandingSystemConfig,
    SystemGeneration,
    ablation_grid,
    config_for,
    mls_v1,
    mls_v2,
    mls_v3,
    preset,
)
from repro.core.landing_system import LandingSystem
from repro.core.metrics import CampaignResult, RunOutcome, RunRecord
from repro.core.mission import MissionConfig, MissionRunner, run_scenario
from repro.core.registry import (
    REGISTRY,
    ComponentContext,
    ComponentError,
    ComponentRegistry,
    ComponentSpec,
    MappingStack,
    register_detector,
    register_mapper,
    register_planner,
)
from repro.dispatch import (
    DispatchPlan,
    ShardQueue,
    load_merged,
    load_plan,
    merge_dispatch,
    plan_dispatch,
    run_local_workers,
    run_worker,
)
from repro.faults import (
    FAULT_MODES,
    FAULT_PRESETS,
    FailureMode,
    FaultHarness,
    FaultSpec,
    accumulate_coverage,
    classify_record,
    render_coverage_report,
    resolve_faults,
)
from repro.realworld import field_suite
from repro.world.scenario import Scenario
from repro.world.scenario_gen import (
    STRESS_AXES,
    SUITE_PRESETS,
    ScenarioSpec,
    SuiteSpec,
    Uniform,
    axis_coverage,
    generate_suite,
    suite_preset,
)
from repro.world.scenario_suite import ScenarioSuite, build_evaluation_suite

__version__ = "1.24.0"

__all__ = [
    # configuration & presets
    "LandingSystemConfig",
    "SystemGeneration",
    "config_for",
    "preset",
    "ablation_grid",
    "mls_v1",
    "mls_v2",
    "mls_v3",
    # component registry
    "REGISTRY",
    "ComponentContext",
    "ComponentError",
    "ComponentRegistry",
    "ComponentSpec",
    "MappingStack",
    "register_detector",
    "register_mapper",
    "register_planner",
    # system & missions
    "LandingSystem",
    "CampaignResult",
    "RunOutcome",
    "RunRecord",
    "MissionConfig",
    "MissionRunner",
    "run_scenario",
    # campaigns
    "Campaign",
    "field_suite",
    # distributed dispatch
    "DispatchPlan",
    "ShardQueue",
    "load_merged",
    "load_plan",
    "merge_dispatch",
    "plan_dispatch",
    "run_local_workers",
    "run_worker",
    # fault injection & failure modes
    "FAULT_MODES",
    "FAULT_PRESETS",
    "FailureMode",
    "FaultHarness",
    "FaultSpec",
    "accumulate_coverage",
    "classify_record",
    "render_coverage_report",
    "resolve_faults",
    # analytics
    "CampaignAnalysis",
    "CampaignComparison",
    "SystemSummary",
    "summarize_records",
    "wilson_interval",
    # scenarios
    "Scenario",
    "ScenarioSuite",
    "build_evaluation_suite",
    # scenario generation
    "STRESS_AXES",
    "SUITE_PRESETS",
    "ScenarioSpec",
    "SuiteSpec",
    "Uniform",
    "axis_coverage",
    "generate_suite",
    "suite_preset",
    "__version__",
]
