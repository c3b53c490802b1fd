"""The float vehicle tick against the numpy and ``Vec3`` forms it replaced.

``reference_vehicle`` keeps the per-axis numpy ``PositionEkf``, the ``Vec3``
dynamics, wind and controller, the four-call IMU and two-call barometer
draws, the autopilot that built an ``EstimatedState`` every tick and the
twelve-comparison collision kernel.  Every input must give the same bits
(``float.hex``) from both, over random inputs and over a seeded autopilot
replay through every flight mode.  The reference IMU still computes the
gyroscope channel that nothing reads; the accelerometer-only IMU keeps its
draws, so the accelerometer and the generator state must match.
"""

import math

import numpy as np
import pytest
import reference_vehicle as reference
from hypothesis import given, settings, strategies as st

from repro.geometry import AABB, Quaternion, Vec3
from repro.geometry.vec import clamp_norm_xyz
from repro.sensors.barometer import Barometer
from repro.sensors.gps import GpsFix
from repro.sensors.imu import ImuQuality, ImuSensor
from repro.vehicle import controller as controller_module, dynamics as dynamics_module
from repro.vehicle.autopilot import Autopilot, AutopilotConfig, FlightMode
from repro.vehicle.controller import ControllerGains, PositionController
from repro.vehicle.dynamics import QuadrotorDynamics, QuadrotorLimits
from repro.vehicle.ekf import PositionEkf
from repro.vehicle.state import EstimatedState, VehicleState
from repro.vehicle.wind import WindModel
from repro.world.obstacles import Obstacle, ObstacleKind
from repro.world.weather import Weather
from repro.world.world import World


def bits(*values) -> list[str]:
    return [float(value).hex() for value in values]


def vec_bits(*vectors) -> list[str]:
    return bits(*(component for vector in vectors for component in (vector.x, vector.y, vector.z)))


def state_bits(state: VehicleState) -> list[str]:
    q = state.orientation
    return vec_bits(state.position, state.velocity, state.acceleration) + bits(
        q.w, q.x, q.y, q.z
    )


def estimate_bits(estimate: EstimatedState) -> list[str]:
    return vec_bits(estimate.position, estimate.velocity, estimate.position_std)


values = st.floats(-100.0, 100.0)
vectors = st.builds(Vec3, values, values, values)
dts = st.one_of(st.just(0.04), st.floats(1e-3, 1.0))
settings_ = settings(max_examples=300, deadline=None)


# --------------------------------------------------------------------- #
# EKF
# --------------------------------------------------------------------- #
@st.composite
def covariances(draw):
    """A per-axis 2x2 covariance: positive diagonal, correlation below one,
    the off-diagonal pair equal or (as rounding leaves it) not."""
    pp = draw(st.floats(1e-4, 100.0))
    vv = draw(st.floats(1e-4, 100.0))
    pv = draw(st.floats(-0.99, 0.99)) * math.sqrt(pp * vv)
    vp = draw(st.one_of(st.just(pv), st.floats(-0.99, 0.99).map(lambda r: r * math.sqrt(pp * vv))))
    return [[pp, pv], [vp, vv]]


predicts = st.tuples(st.just("predict"), vectors, dts)
gps_fixes = st.tuples(st.just("gps"), vectors, st.floats(0.0, 8.0))
altitudes = st.tuples(st.just("baro"), values, st.none())


def loaded_filters(positions, velocities, covariance):
    ekf, ref = PositionEkf(), reference.ReferenceEkf()
    ekf._position, ekf._velocity = list(positions), list(velocities)
    ekf._covariance = [c for axis in covariance for row in axis for c in row]
    ref._state = np.array([[p, v] for p, v in zip(positions, velocities)])
    ref._covariance = np.array(covariance)
    return ekf, ref


def assert_same_filter(ekf: PositionEkf, ref) -> None:
    assert estimate_bits(ekf.estimate()) == estimate_bits(ref.estimate())
    assert bits(*ekf._covariance) == bits(*ref._covariance.ravel())


@settings_
@given(
    positions=st.tuples(values, values, values),
    velocities=st.tuples(values, values, values),
    covariance=st.tuples(covariances(), covariances(), covariances()),
    steps=st.lists(st.one_of(predicts, gps_fixes, altitudes), min_size=1, max_size=25),
)
def test_ekf_matches_per_axis_numpy(positions, velocities, covariance, steps):
    ekf, ref = loaded_filters(positions, velocities, covariance)
    for kind, value, extra in steps:
        if kind == "predict":
            ekf.predict(value, extra)
            ref.predict(value, extra)
        elif kind == "gps":
            fix = GpsFix(position=value, hdop=extra, vdop=2.0, timestamp=0.0)
            ekf.update_gps(fix)
            ref.update_gps(fix)
        else:
            ekf.update_altitude(value)
            ref.update_altitude(value)
        assert_same_filter(ekf, ref)
        assert bits(*ekf.position_xyz) == vec_bits(ref.estimate().position)


@settings_
@given(home=vectors, steps=st.lists(st.tuples(vectors, dts, values), min_size=1, max_size=25))
def test_ekf_from_reset_matches_per_axis_numpy(home, steps):
    ekf, ref = PositionEkf(), reference.ReferenceEkf()
    ekf.reset_to(home)
    ref.reset_to(home)
    assert_same_filter(ekf, ref)
    for acceleration, dt, altitude in steps:
        ekf.update_altitude(altitude)
        ref.update_altitude(altitude)
        ekf.predict(acceleration, dt)
        ref.predict(acceleration, dt)
        assert_same_filter(ekf, ref)


def test_ekf_rejects_non_positive_dt():
    for ekf in (PositionEkf(), reference.ReferenceEkf()):
        with pytest.raises(ValueError):
            ekf.predict(Vec3.zero(), -0.04)


# --------------------------------------------------------------------- #
# dynamics, controller, wind
# --------------------------------------------------------------------- #
limits_strategy = st.builds(
    QuadrotorLimits,
    max_horizontal_speed=st.floats(0.0, 8.0),
    max_vertical_speed=st.floats(0.0, 3.0),
    max_acceleration=st.floats(0.0, 8.0),
    max_tilt_radians=st.floats(0.0, 0.8),
    velocity_time_constant=st.floats(0.05, 1.0),
    drag_coefficient=st.floats(0.0, 0.5),
)
initial_states = st.builds(
    VehicleState,
    position=st.builds(Vec3, values, values, st.floats(0.0, 2.0)),
    velocity=vectors,
    orientation=st.floats(-math.pi, math.pi).map(Quaternion.from_yaw),
)


@settings_
@given(
    limits=limits_strategy,
    initial=initial_states,
    commands=st.lists(
        st.tuples(vectors, st.one_of(st.none(), st.floats(-math.pi, math.pi)), vectors, dts),
        min_size=1,
        max_size=12,
    ),
)
def test_dynamics_matches_vec3_form(limits, initial, commands):
    ours = QuadrotorDynamics(limits, initial_state=initial)
    ref = reference.ReferenceDynamics(limits, initial_state=initial)
    for command, yaw, wind, dt in commands:
        command_velocity(ours, command, yaw)
        command_velocity(ref, command, yaw)
        assert bits(*ours._commanded_velocity) == vec_bits(ref.commanded_velocity)
        assert state_bits(ours.step(dt, wind=wind)) == state_bits(ref.step(dt, wind=wind))


def command_velocity(dynamics, velocity: Vec3, yaw=None) -> None:
    """Command ``velocity`` through the float entry point, or the reference's
    ``Vec3`` one."""
    if isinstance(dynamics, QuadrotorDynamics):
        dynamics.command_velocity_xyz(velocity.x, velocity.y, velocity.z, yaw)
    else:
        dynamics.command_velocity(velocity, yaw)


@pytest.mark.parametrize(
    "limits, error",
    [
        (QuadrotorLimits(velocity_time_constant=0.0), ZeroDivisionError),
        (QuadrotorLimits(max_acceleration=-1.0), ValueError),
    ],
)
def test_dynamics_raises_as_vec3_form(limits, error):
    for dynamics in (QuadrotorDynamics(limits), reference.ReferenceDynamics(limits)):
        command_velocity(dynamics, Vec3(1.0, 0.0, 0.0))
        with pytest.raises(error):
            dynamics.step(0.04)


def test_negative_speed_envelope_raises_as_vec3_form():
    limits = QuadrotorLimits(max_horizontal_speed=-1.0)
    for dynamics in (QuadrotorDynamics(limits), reference.ReferenceDynamics(limits)):
        with pytest.raises(ValueError):
            command_velocity(dynamics, Vec3(1.0, 0.0, 0.0))


@settings_
@given(
    position=vectors,
    target=vectors,
    speed_limit=st.one_of(st.none(), st.floats(0.0, 10.0)),
    gains=st.builds(
        ControllerGains,
        position_p=st.floats(0.1, 3.0),
        approach_slowdown_radius=st.floats(0.0, 10.0),
    ),
)
def test_controller_matches_vec3_form(position, target, speed_limit, gains):
    estimate = EstimatedState(position=position)
    want = reference.ReferenceController(gains).velocity_command(estimate, target, speed_limit)
    assert bits(*PositionController(gains).velocity_command_xyz(*position, target, speed_limit)) == vec_bits(want)


@settings_
@given(vector=vectors, max_norm=st.floats(0.0, 200.0))
def test_clamp_norm_xyz_matches_vec3(vector, max_norm):
    assert bits(*clamp_norm_xyz(vector.x, vector.y, vector.z, max_norm)) == vec_bits(
        vector.clamp_norm(max_norm)
    )


@settings_
@given(
    seed=st.integers(0, 2**32 - 1),
    wind_speed=st.floats(0.0, 15.0),
    gust_intensity=st.floats(0.0, 1.0),
    steps=st.lists(dts, min_size=1, max_size=20),
)
def test_wind_matches_three_draw_form(seed, wind_speed, gust_intensity, steps):
    weather = Weather(wind_speed=wind_speed, gust_intensity=gust_intensity)
    ours, ref = WindModel(weather, seed=seed), reference.ReferenceWindModel(weather, seed=seed)
    assert vec_bits(ours.mean_direction) == vec_bits(ref.mean_direction)
    for dt in steps:
        assert vec_bits(ours.step(dt)) == vec_bits(ref.step(dt))


# --------------------------------------------------------------------- #
# sensors
# --------------------------------------------------------------------- #
@settings_
@given(
    seed=st.integers(0, 2**32 - 1),
    quality=st.sampled_from([ImuQuality.consumer_grade(), ImuQuality.industrial_grade()]),
    inputs=st.lists(st.tuples(vectors, vectors), min_size=1, max_size=20),
)
def test_imu_matches_four_call_draws(seed, quality, inputs):
    ours, ref = ImuSensor(quality, seed=seed), reference.ReferenceImuSensor(quality, seed=seed)
    for tick, (acceleration, rate) in enumerate(inputs):
        want = ref.measure(acceleration, rate, tick * 0.04)
        assert vec_bits(ours.measure(acceleration)) == vec_bits(want.acceleration)
        assert ours._rng.bit_generator.state == ref._rng.bit_generator.state


@settings_
@given(
    seed=st.integers(0, 2**32 - 1),
    noise_std=st.floats(0.0, 1.0),
    drift_rate=st.floats(0.0, 0.1),
    altitudes=st.lists(values, min_size=1, max_size=20),
)
def test_barometer_matches_two_call_draws(seed, noise_std, drift_rate, altitudes):
    ours = Barometer(noise_std, drift_rate, seed=seed)
    ref = reference.ReferenceBarometer(noise_std, drift_rate, seed=seed)
    for altitude in altitudes:
        assert bits(ours.measure(altitude)) == bits(ref.measure(altitude))
        assert bits(ours.current_drift) == bits(ref.current_drift)


# --------------------------------------------------------------------- #
# collision monitor
# --------------------------------------------------------------------- #
boxes = st.tuples(vectors, st.builds(Vec3, *[st.floats(0.0, 30.0)] * 3)).map(
    lambda corner_size: AABB(corner_size[0], corner_size[0] + corner_size[1])
)


@settings_
@given(
    bounds=st.lists(boxes, min_size=0, max_size=8),
    margin=st.sampled_from([0.0, 0.3, 1.0]),
    points=st.lists(vectors, min_size=1, max_size=10),
)
def test_collision_monitor_matches_per_axis_kernel(bounds, margin, points):
    obstacles = [
        Obstacle(ObstacleKind.BUILDING, box, name=f"box{i}") for i, box in enumerate(bounds)
    ]
    world = World(name="boxes", bounds=AABB(Vec3(-200, -200, 0), Vec3(200, 200, 200)), obstacles=obstacles)
    geometry = world.geometry()
    # Every box's corner and centre hits, and where boxes overlap the first
    # one listed must win.
    probes = points + [box.minimum for box in bounds] + [box.center for box in bounds]
    for point in probes:
        got = world.colliding_obstacle(point, margin)
        assert got is reference.reference_colliding_obstacle(geometry, point, margin)
    for box in bounds:
        assert world.colliding_obstacle(box.center, margin) is not None


# --------------------------------------------------------------------- #
# seeded autopilot replay through every flight mode
# --------------------------------------------------------------------- #
class ClampLog:
    """Wraps ``clamp_norm_xyz`` in the dynamics and controller modules and
    keeps the ``max_norm`` of every call that shortened its vector."""

    def __init__(self, monkeypatch) -> None:
        self.clamped: set[float] = set()
        original = clamp_norm_xyz

        def logged(x, y, z, max_norm):
            result = original(x, y, z, max_norm)
            if result != (x, y, z):
                self.clamped.add(max_norm)
            return result

        monkeypatch.setattr(dynamics_module, "clamp_norm_xyz", logged)
        monkeypatch.setattr(controller_module, "clamp_norm_xyz", logged)


class Replay:
    """An ``Autopilot`` and a ``ReferenceAutopilot`` built alike, stepped
    and commanded together; every tick must give equal true and estimated
    states and the same mode."""

    DT = 0.04

    def __init__(self, world: World, limits: QuadrotorLimits, home: Vec3, seed: int) -> None:
        self.pair = [
            cls(world, AutopilotConfig(return_altitude=18.0, limits=limits), home=home, seed=seed)
            for cls in (Autopilot, reference.ReferenceAutopilot)
        ]
        self.branches: set[str] = set()
        self.ground_clamps = 0

    @property
    def ours(self) -> Autopilot:
        return self.pair[0]

    def command(self, name: str, *args, **kwargs) -> None:
        for autopilot in self.pair:
            getattr(autopilot, name)(*args, **kwargs)

    def _branch(self) -> str:
        ours = self.ours
        mode = ours.mode
        altitude = ours.estimated_state.altitude
        if mode is FlightMode.OFFBOARD:
            if ours._setpoint is None:
                return "offboard-hold"
            return "offboard-limited" if ours._setpoint_speed_limit is not None else "offboard"
        if mode is FlightMode.RETURN:
            return "return-climb" if altitude < ours.config.return_altitude - 0.5 else "return-cruise"
        return mode.value

    def step(self, ticks: int, until=None) -> None:
        for _ in range(ticks):
            before = self.ours.mode
            self.branches.add(self._branch())
            previous = self.ours.true_state
            ours, ref = (autopilot.step(self.DT) for autopilot in self.pair)
            assert state_bits(ours) == state_bits(ref)
            assert estimate_bits(self.ours.estimated_state) == estimate_bits(self.pair[1].estimated_state)
            assert self.ours.mode is self.pair[1].mode
            if before is not self.ours.mode:
                self.branches.add(f"{before.value}->{self.ours.mode.value}")
            if previous.position.z > 0.0 and ours.position.z == 0.0 and ours.velocity.z == 0.0:
                self.ground_clamps += 1
            if until is not None and until(self.ours):
                return


def test_autopilot_replay_through_every_mode(monkeypatch):
    clamps = ClampLog(monkeypatch)
    # A 9 m/s wind against a 1 m/s airframe: the drag pushes the vehicle
    # past its 1.2 m/s velocity cap, and climbs and turns hit the 1.5 m/s²
    # acceleration cap.
    weather = Weather(wind_speed=9.0, gust_intensity=0.6, gps_degradation=0.4)
    world = World(name="replay", bounds=AABB(Vec3(-100, -100, 0), Vec3(100, 100, 60)), weather=weather)
    limits = QuadrotorLimits(max_horizontal_speed=1.0, max_acceleration=1.5)
    replay = Replay(world, limits, home=Vec3(2.0, -3.0, 0.0), seed=11)

    replay.step(5)  # IDLE
    replay.command("arm_and_takeoff", 8.0)
    replay.step(2000, until=lambda ap: ap.mode is FlightMode.OFFBOARD)
    replay.step(10)  # OFFBOARD without a setpoint
    replay.command("set_position_setpoint", Vec3(12.0, 6.0, 8.0), yaw=0.8)
    replay.step(250)
    replay.command("set_position_setpoint", Vec3(6.0, 8.0, 9.0), yaw=-0.4, speed_limit=0.8)
    replay.step(150)
    replay.command("command_return")
    replay.step(4000, until=lambda ap: ap.mode is FlightMode.LAND)
    replay.step(4000, until=lambda ap: ap.mode is FlightMode.LANDED)
    replay.step(50)  # LANDED: the vehicle settles onto the ground

    assert replay.branches >= {
        "idle", "takeoff", "takeoff->offboard", "offboard-hold", "offboard", "offboard-limited",
        "return-climb", "return-cruise", "return->land", "land", "land->landed", "landed",
    }
    assert replay.ground_clamps > 0
    gains = ControllerGains()
    assert clamps.clamped >= {
        limits.max_acceleration,                # acceleration cap
        limits.max_horizontal_speed * 1.2,      # velocity cap
        limits.max_horizontal_speed,            # command envelope
        gains.max_horizontal_speed,             # controller cap
        0.8,                                    # setpoint speed limit
    }
