"""The mission loop's depth tick against the always-render loop it replaced.

``reference_mission`` keeps the runner as it was when both depth cameras
captured at every depth tick and an unfaulted run had no harness.  Now a
depth tick renders only when something reads the cloud: a system that maps
clouds, or an armed depth fault; and every run flies through a harness,
an empty one when none is given.  For each generation, over the smoke-7
suite, with no harness (the runner's empty one against the reference's
hook-free loop), a disarmed harness (every target at probability 0), an
armed depth fault and an armed EKF-reset fault, every record must equal
the reference runner's, and ``DepthCamera.capture`` must run exactly when
the system maps clouds or a depth fault is armed.
"""

import json

import pytest
from reference_mission import ReferenceMissionRunner

from repro.core.config import mls_v1, mls_v2, mls_v3
from repro.core.mission import MissionConfig, MissionRunner
from repro.faults.harness import FaultHarness
from repro.faults.spec import FAULT_MODES, FaultSpec
from repro.perception.neural.training import load_pretrained_detector_net
from repro.sensors.depth import DepthCamera
from repro.world.scenario_gen import generate_suite

#: Each generation, whether it maps clouds (MLS-V1 has no occupancy map)
#: and its mission length.  MLS-V1, whose depth tick changed, flies whole
#: missions; MLS-V2 and MLS-V3 keep the always-render path and fly their
#: first 30 s, which keeps the test's cost down.
SYSTEMS = {
    "mls-v1": (mls_v1, False, MissionConfig()),
    "mls-v2": (mls_v2, True, MissionConfig(max_mission_time=30.0)),
    "mls-v3": (mls_v3, True, MissionConfig(max_mission_time=30.0)),
}
#: The learned-detector generations fly in the slow tier.
SYSTEM_PARAMS = [
    pytest.param(key, marks=() if key == "mls-v1" else pytest.mark.slow) for key in SYSTEMS
]

#: Fault set-ups: the specs (``None`` for no harness) and whether a depth
#: fault is armed.  The armed faults act from early in the flight, so every
#: smoke-7 mission sees them.
SETUPS = {
    "no harness": (None, False),
    "disarmed harness": (
        tuple(
            FaultSpec(target=target, mode=modes[0], probability=0.0)
            for target, modes in sorted(FAULT_MODES.items())
        ),
        False,
    ),
    "armed depth fault": (
        (FaultSpec(target="depth", mode="dropout", start=0.0, duration=None),),
        True,
    ),
    "armed ekf-reset": (
        (FaultSpec(target="vehicle", mode="ekf-reset", severity=0.3, start=10.0, duration=20.0),),
        False,
    ),
}


def fly(runner_class, scenario, config, mission, faults, network):
    """One mission: its record as persisted JSON, its ``DepthCamera.capture``
    calls and the runner's ``depth-captures`` counter."""
    harness = None
    if faults is not None:
        harness = FaultHarness(faults, scenario_fingerprint=scenario.fingerprint())
    runner = runner_class(
        scenario, config, mission_config=mission, detector_network=network, fault_harness=harness
    )
    capture, calls = DepthCamera.capture, []

    def counting(camera, *args, **kwargs):
        calls.append(camera.facing)
        return capture(camera, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DepthCamera, "capture", counting)
        record = runner.run()
    return json.dumps(record.to_dict(), sort_keys=True), calls, runner.recorder.counters


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("system", SYSTEM_PARAMS)
def test_records_match_the_always_render_loop(system, setup):
    build, maps_clouds, mission = SYSTEMS[system]
    network = None if system == "mls-v1" else load_pretrained_detector_net()
    faults, depth_armed = SETUPS[setup]
    renders = maps_clouds or depth_armed
    for scenario in generate_suite("smoke", seed=7).scenarios:
        record, calls, counters = fly(MissionRunner, scenario, build(), mission, faults, network)
        expected, reference_calls, _ = fly(
            ReferenceMissionRunner, scenario, build(), mission, faults, network
        )
        assert record == expected, (system, setup, scenario.scenario_id)
        assert reference_calls
        assert calls == (reference_calls if renders else [])
        assert 2 * counters["depth-captures"] == len(calls)
        for fault in json.loads(record).get("injected_faults", []):
            # Each armed fault acted in the mission, so its hooks ran.
            assert (fault["events"] > 0) == fault["armed"] == (setup != "disarmed harness")
