"""Execution-platform models.

The landing software runs on different compute platforms in the paper's three
experiments: a desktop (SIL), a Jetson Nano (HIL) and the real drone's Jetson
with live camera I/O behind an upgraded flight controller (real world).  The
mission runner is platform-agnostic.  It takes the autopilot's IMU quality
from the platform's :attr:`~ExecutionPlatform.imu_quality`, calls
:meth:`~ExecutionPlatform.bind` once with the landing system it built, and
after every decision tick hands the module timings to
:meth:`~ExecutionPlatform.schedule_tick`, which decides whether the platform
kept up and reports utilisation samples.

:class:`DesktopPlatform` (SIL) always keeps up; the Jetson model lives in
:mod:`repro.hil.jetson` and the field platform in
:mod:`repro.realworld.field_test`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sensors.imu import ImuQuality

#: Memory the desktop reports for the landing software on every tick, MB.
DESKTOP_MEMORY_MB = 1200.0


@dataclass(frozen=True)
class TickBudget:
    """What the platform managed to do within one decision period."""

    allow_replan: bool = True
    skip_mapping: bool = False
    cpu_utilisation: float = 0.0
    memory_mb: float = 0.0
    gpu_utilisation: float = 0.0
    deadline_missed: bool = False


class ExecutionPlatform:
    """Scheduling and resource model of the companion computer."""

    #: IMU of the flight controller the platform flies with: consumer grade
    #: (the Pixhawk 2.4.8) unless a platform carries another board.
    imu_quality: ImuQuality = ImuQuality.consumer_grade()

    def bind(self, system) -> None:
        """Receive the mission's landing system once the runner has built it (no-op here)."""

    def schedule_tick(self, timings, tick_period: float) -> TickBudget:
        """Account for one decision tick's module workload."""
        raise NotImplementedError


class DesktopPlatform(ExecutionPlatform):
    """The SIL platform: a desktop that never misses a deadline."""

    def schedule_tick(self, timings, tick_period: float) -> TickBudget:
        utilisation = min(1.0, timings.total / max(tick_period, 1e-6))
        return TickBudget(
            allow_replan=True,
            skip_mapping=False,
            cpu_utilisation=utilisation * 0.5,
            memory_mb=DESKTOP_MEMORY_MB,
            gpu_utilisation=0.25 if timings.detection > 0.02 else 0.05,
            deadline_missed=False,
        )
