"""Unit tests for the landing system's decision logic (no full mission)."""


import pytest

from repro.core.commands import CommandKind
from repro.core.config import mls_v1, mls_v2, mls_v3
from repro.core.landing_system import LandingSystem
from repro.core.registry import MAPPER, REGISTRY, register_mapper
from repro.core.states import DecisionState
from repro.geometry import Vec3
from repro.mapping.inflation import InflatedMap
from repro.perception.detection import Detection, DetectionFrame
from repro.perception.neural.training import load_pretrained_detector_net
from repro.sensors.depth import PointCloud
from repro.vehicle.state import EstimatedState


@pytest.fixture(scope="module")
def network():
    return load_pretrained_detector_net()


def make_system(config=None, gps_target=Vec3(20, 0, 0), network_instance=None):
    return LandingSystem(
        config=config or mls_v3(),
        target_marker_id=7,
        gps_target=gps_target,
        home=Vec3.zero(),
        seed=1,
        detector_network=network_instance,
    )


def estimate_at(x, y, z):
    return EstimatedState(position=Vec3(x, y, z))


def detection_frame(timestamp, marker_id, position, confidence=1.0):
    return DetectionFrame(
        timestamp=timestamp,
        detections=[
            Detection(
                marker_id=marker_id,
                pixel_center=(64, 64),
                pixel_size=12,
                world_position=position,
                confidence=confidence,
            )
        ],
    )


def inject_frame(system, frame):
    """Feed a pre-built detection frame, bypassing the camera+detector path."""
    system._last_frame = frame
    best = system._best_candidate(frame)
    if best is not None:
        system._last_detection = best
        system._last_detection_time = frame.timestamp


class TestModuleAssembly:
    def test_v1_has_no_map(self, network):
        system = make_system(mls_v1())
        mapping = system.mapping
        assert mapping.local_grid is None and mapping.octree is None and system.inflated is None

    def test_v2_uses_dense_grid(self, network):
        system = make_system(mls_v2(), network_instance=network)
        assert system.mapping.local_grid is not None and system.mapping.octree is None

    def test_v3_uses_octree(self, network):
        system = make_system(mls_v3(), network_instance=network)
        assert system.mapping.octree is not None and system.mapping.local_grid is None

    def test_v2_builds_one_inflated_map_for_planner_and_checks(self, network, monkeypatch):
        built = []
        init = InflatedMap.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(InflatedMap, "__init__", counting_init)
        system = make_system(mls_v2(), network_instance=network)
        assert len(built) == 1
        assert built[0] is system.inflated is system.mapping.inflated is system.planner.inflated
        assert system.inflated.base_map is system.mapping.local_grid

    @pytest.mark.parametrize("config", [mls_v2, mls_v3], ids=["v2", "v3"])
    def test_plans_and_checks_the_descent_corridor_at_the_safety_clearance(self, network, config):
        default = make_system(config(), network_instance=network)
        wide = make_system(config().with_safety(obstacle_clearance=1.0), network_instance=network)
        assert default.inflated.inflation_radius == pytest.approx(0.85)
        assert wide.inflated.inflation_radius == pytest.approx(1.35)
        # One obstacle voxel 1.0 m beside a descent corridor: inside the
        # 1.35 m clearance, outside the default 0.85 m one.
        cloud = PointCloud(points=[Vec3(5, 0, 5)] * 4, sensor_position=Vec3.zero())
        top, bottom = Vec3(5, 1.0, 9), Vec3(5, 1.0, 2)
        for system, blocked in ((default, False), (wide, True)):
            system.process_cloud(cloud, estimate_at(0, 0, 5))
            assert system.planner.inflated is system.inflated
            assert system.planner.inflated.is_colliding(Vec3(5, 1.0, 5)) is blocked
            assert system.inflated.segment_colliding(top, bottom) is blocked

    def test_map_memory_reporting(self, network):
        v1 = make_system(mls_v1())
        v3 = make_system(mls_v3(), network_instance=network)
        assert v1.map_memory_bytes() == 0
        assert v3.map_memory_bytes() > 0


class TestStateMachine:
    def test_starts_in_transit_and_issues_setpoints(self, network):
        system = make_system(network_instance=network)
        command = system.decide(estimate_at(0, 0, 12), now=1.0)
        assert system.state is DecisionState.TRANSIT
        assert command.kind is CommandKind.SETPOINT

    def test_transit_to_search_on_arrival(self, network):
        system = make_system(network_instance=network)
        system.decide(estimate_at(19, 0, 12), now=1.0)
        assert system.state is DecisionState.SEARCH

    def test_search_to_validate_on_detection(self, network):
        system = make_system(network_instance=network)
        system.decide(estimate_at(19, 0, 12), now=1.0)   # enters search
        inject_frame(system, detection_frame(1.2, 7, Vec3(21, 1, 0)))
        system.decide(estimate_at(19, 0, 8), now=1.4)
        assert system.state is DecisionState.VALIDATE

    def test_validation_accepts_target_and_starts_landing(self, network):
        system = make_system(network_instance=network)
        system.decide(estimate_at(19, 0, 12), now=1.0)
        inject_frame(system, detection_frame(1.2, 7, Vec3(21, 1, 0)))
        system.decide(estimate_at(19, 0, 8), now=1.4)
        hover = estimate_at(21, 1, system.config.validation.validation_altitude)
        now = 2.0
        for _ in range(system.config.validation.required_hits + 2):
            inject_frame(system, detection_frame(now, 7, Vec3(21, 1, 0)))
            system.decide(hover, now=now)
            now += 0.2
            if system.state is DecisionState.LANDING:
                break
        assert system.state is DecisionState.LANDING
        assert system.validated_position.horizontal_distance_to(Vec3(21, 1, 0)) < 0.5

    def test_validation_rejects_decoy_and_remembers_it(self, network):
        system = make_system(network_instance=network)
        system.decide(estimate_at(19, 0, 12), now=1.0)
        inject_frame(system, detection_frame(1.2, 3, Vec3(18, -2, 0)))
        # A decoy ID never counts as the briefed target, so the candidate path
        # is only entered through the unidentified-detection route; classical
        # configs simply ignore it.
        assert system._best_candidate(detection_frame(1.2, 3, Vec3(18, -2, 0))) is None

    def test_landing_aborts_when_marker_lost(self, network):
        system = make_system(network_instance=network)
        system._validated_position = Vec3(20, 0, 0)
        system._candidate_position = Vec3(20, 0, 0)
        system.state = DecisionState.LANDING
        system._last_detection_time = 0.0
        system._descent_target_altitude = 5.0
        lost_duration = system.config.landing.marker_lost_tolerance + 1.0
        command = system.decide(estimate_at(20, 0, 5), now=lost_duration)
        assert system.state in (DecisionState.VALIDATE, DecisionState.FAILSAFE)

    def test_final_descent_when_low_and_close(self, network):
        system = make_system(network_instance=network)
        system._validated_position = Vec3(20, 0, 0)
        system.state = DecisionState.LANDING
        system._last_detection_time = 9.9
        system._descent_target_altitude = 1.5
        command = system.decide(estimate_at(20, 0.2, 1.6), now=10.0)
        assert system.state is DecisionState.FINAL_DESCENT
        assert command.kind is CommandKind.LAND

    def test_failsafe_issues_return(self, network):
        system = make_system(network_instance=network)
        system.decide(estimate_at(19, 0, 12), now=1.0)
        command = None
        for t in range(200):
            command = system.decide(estimate_at(19, 0, 8), now=100.0 + t)
            if system.state is DecisionState.FAILSAFE:
                break
        assert system.state is DecisionState.FAILSAFE
        assert command.kind is CommandKind.RETURN
        assert system.is_terminal

    def test_transitions_are_recorded(self, network):
        system = make_system(network_instance=network)
        system.decide(estimate_at(19, 0, 12), now=1.0)
        assert len(system.transitions) == 1
        assert system.transitions[0].to_state is DecisionState.SEARCH


class TestMappingIntegration:
    def test_process_cloud_updates_octree(self, network):
        system = make_system(mls_v3(), network_instance=network)
        cloud = PointCloud(points=[Vec3(5, 0, 5)] * 4, sensor_position=Vec3.zero())
        system.process_cloud(cloud, estimate_at(0, 0, 5))
        assert system.mapping.octree.is_occupied(Vec3(5, 0, 5))

    def test_process_cloud_noop_for_v1(self, network):
        system = make_system(mls_v1())
        assert not system.mapping.maps_clouds
        cloud = PointCloud(points=[Vec3(5, 0, 5)], sensor_position=Vec3.zero())
        system.process_cloud(cloud, estimate_at(0, 0, 5))   # must not raise
        assert system.last_timings.mapping == 0.0

    def test_maps_clouds_follows_the_mapping_stack(self, network):
        assert make_system(mls_v2(), network_instance=network).mapping.maps_clouds
        assert make_system(mls_v3(), network_instance=network).mapping.maps_clouds

        class CloudLog:
            def __init__(self):
                self.clouds = []

            def integrate_cloud(self, cloud):
                self.clouds.append(cloud)

        cloud = PointCloud(points=[Vec3(5, 0, 5)], sensor_position=Vec3.zero())
        for key, primary, maps in (("test-cloud-log", CloudLog(), True), ("test-no-cloud", object(), False)):
            register_mapper(key, latency=0.004)(lambda context, primary=primary: primary)
            try:
                system = make_system(mls_v1().with_components(mapper=key))
                assert system.mapping.maps_clouds is maps
                system.process_cloud(cloud, estimate_at(0, 0, 5))
            finally:
                REGISTRY.unregister(MAPPER, key)
            assert system.last_timings.mapping == (0.004 if maps else 0.0)
            assert getattr(primary, "clouds", [cloud]) == [cloud]

    def test_planning_avoids_mapped_obstacle(self, network):
        system = make_system(mls_v3(), gps_target=Vec3(14, 0, 0), network_instance=network)
        # Map a wall between the start and the GPS target.
        wall = [Vec3(7, y * 0.5, z * 0.5) for y in range(-6, 7) for z in range(8, 30)]
        system.process_cloud(PointCloud(points=wall, sensor_position=Vec3(0, 0, 10)), estimate_at(0, 0, 10))
        command = system.decide(estimate_at(0, 0, 12), now=1.0)
        assert command.kind is CommandKind.SETPOINT
        assert system.last_timings.planning > 0.0
