"""Position/velocity state estimator.

A per-axis linear Kalman filter fusing GPS position fixes, barometric
altitude and IMU acceleration (used as the process input).  Its important
property for the reproduction is faithfulness to how PX4's EKF behaves under
GPS drift: because the drift is slowly varying and self-consistent, the filter
*tracks* it rather than rejecting it, so the whole estimated frame — and with
it the occupancy map built from estimated poses — shifts with the drift
(§V.C, Fig. 5c/5d).

Arithmetic contract.  The filter runs at the 25 Hz physics rate, so it holds
its state as plain floats (three positions, three velocities, one 2x2
covariance per axis) and spells out the products of the per-axis numpy
formulation it replaced, float operation for float operation, so every
estimate keeps its bits:

* The state predict ``F x + u a`` is written ``(0.0 + (1.0*p + dt*v)) +
  (0.5*dt*dt)*a`` and ``(0.0 + (0.0*p + 1.0*v)) + dt*a``: the BLAS matrix-
  vector product adds its two products unfused into an accumulator that
  starts at ``+0.0`` (the ``0.0 +`` only turns a ``-0.0`` into ``+0.0``).
* The covariance predict ``F P Fᵀ + Q`` stays one batched numpy matmul over
  a ``(3, 2, 2)`` array, with ``F``, ``Fᵀ`` and ``Q`` cached per ``dt``.
  OpenBLAS's dgemm fuses each multiply-add, so its ``P00 + dt*P10`` is an
  exact ``fma``; plain floats round the product first and differ in a tenth
  or more of random draws, and ``math.fma`` arrives only in Python 3.13.
* The scalar GPS and barometer updates observe ``o = [1, 0]``.  Every
  product with ``o`` is then a copy, and ``(I - g oᵀ)`` has ``0`` and ``1``
  in its second column, so its gemm with ``P`` rounds each element once,
  as plain float arithmetic does (a fused multiply-add by ``1.0`` rounds
  like an add).  Each element keeps the ``0.0 +`` of its BLAS accumulator.

``tests/reference_vehicle.py`` keeps the numpy formulation, and property
tests compare the two bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import Quaternion, Vec3
from repro.sensors.gps import GpsFix
from repro.vehicle.state import EstimatedState


@dataclass(frozen=True)
class EkfConfig:
    """Tuning of the estimator."""

    gps_position_std: float = 0.6
    baro_altitude_std: float = 0.15
    accel_process_std: float = 0.5
    initial_position_std: float = 1.0
    initial_velocity_std: float = 0.5


class PositionEkf:
    """Three independent position/velocity Kalman filters (one per axis)."""

    def __init__(self, config: EkfConfig | None = None) -> None:
        self.config = config or EkfConfig()
        # State per axis: position and velocity; the covariance is flat,
        # [pp, pv, vp, vv] for x, then y, then z.
        self._position = [0.0, 0.0, 0.0]
        self._velocity = [0.0, 0.0, 0.0]
        self._covariance = self._initial_covariance() * 3
        self._orientation = Quaternion.identity()
        # F, Fᵀ and Q of the last predict's dt.
        self._predict_dt: float | None = None
        self._transition = self._transition_t = self._process_noise = None

    def _initial_covariance(self) -> list[float]:
        c = self.config
        return [c.initial_position_std**2, 0.0, 0.0, c.initial_velocity_std**2]

    # ------------------------------------------------------------------ #
    # filter steps
    # ------------------------------------------------------------------ #
    def predict(self, acceleration: Vec3, dt: float) -> None:
        """Propagate with the measured acceleration as the control input."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if dt != self._predict_dt:
            transition = np.array([[1.0, dt], [0.0, 1.0]])
            self._transition, self._transition_t = transition, transition.T
            self._process_noise = (self.config.accel_process_std**2) * np.array(
                [[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]]
            )
            self._predict_dt = dt
        half_dt2 = 0.5 * dt * dt
        axes = tuple(
            zip(self._position, self._velocity, (acceleration.x, acceleration.y, acceleration.z))
        )
        self._position = [(0.0 + (1.0 * p + dt * v)) + half_dt2 * a for p, v, a in axes]
        self._velocity = [(0.0 + (0.0 * p + 1.0 * v)) + dt * a for p, v, a in axes]
        covariance = np.array(self._covariance).reshape(3, 2, 2)
        self._covariance = (
            self._transition @ covariance @ self._transition_t + self._process_noise
        ).ravel().tolist()

    def update_gps(self, fix: GpsFix) -> None:
        """Fuse a GPS fix (all three axes)."""
        measurement = fix.position
        # Scale measurement noise with the reported DOP, as PX4 does.
        std = self.config.gps_position_std * (0.5 + fix.hdop / 4.0)
        self._scalar_update(0, measurement.x, std**2)
        self._scalar_update(1, measurement.y, std**2)
        self._scalar_update(2, measurement.z, (std * 1.5) ** 2)

    def update_altitude(self, altitude: float) -> None:
        """Fuse a barometric altitude measurement (z axis only)."""
        self._scalar_update(2, altitude, self.config.baro_altitude_std**2)

    def update_orientation(self, orientation: Quaternion) -> None:
        """Attitude is taken from the attitude estimator directly."""
        self._orientation = orientation

    def _scalar_update(self, axis: int, measured_position: float, variance: float) -> None:
        at = 4 * axis
        c00, c01, c10, c11 = self._covariance[at : at + 4]
        position = self._position[axis]
        innovation = measured_position - (0.0 + position)
        innovation_variance = (0.0 + c00) + variance
        gain_p = (0.0 + c00) / innovation_variance
        gain_v = (0.0 + c10) / innovation_variance
        self._position[axis] = position + gain_p * innovation
        self._velocity[axis] = self._velocity[axis] + gain_v * innovation
        # (I - g oᵀ) = [[1 - gain_p, 0], [-gain_v, 1]], times the covariance.
        keep_p = 1.0 - gain_p
        shift_v = 0.0 - gain_v
        self._covariance[at : at + 4] = [
            0.0 + keep_p * c00,
            0.0 + keep_p * c01,
            (0.0 + shift_v * c00) + c10,
            (0.0 + shift_v * c01) + c11,
        ]

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    @property
    def position_xyz(self) -> tuple[float, float, float]:
        """The estimated position as bare floats (the autopilot's tick reads it)."""
        x, y, z = self._position
        return x, y, z

    def estimate(self) -> EstimatedState:
        covariance = self._covariance
        return EstimatedState(
            position=Vec3(*self._position),
            velocity=Vec3(*self._velocity),
            orientation=self._orientation,
            position_std=Vec3(
                math.sqrt(covariance[0]), math.sqrt(covariance[4]), math.sqrt(covariance[8])
            ),
        )

    def reset_to(self, position: Vec3) -> None:
        """Hard-reset the filter (used at scenario initialisation)."""
        self._position = [float(value) for value in position.to_tuple()]
        self._velocity = [0.0, 0.0, 0.0]
        self._covariance = self._initial_covariance() * 3
