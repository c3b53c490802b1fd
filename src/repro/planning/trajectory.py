"""Waypoint trajectories, smoothing and following.

Planners return waypoint polylines; the decision-making module wraps them in
a :class:`Trajectory` and drives the autopilot through a
:class:`TrajectoryFollower`.  The follower advances to the next waypoint when
the vehicle gets within an acceptance radius — meaning sharp corners get cut
by the vehicle's momentum, which is the mechanism behind the MLS-V3 corner
failures the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Vec3
from repro.planning.types import path_length


@dataclass
class Trajectory:
    """An ordered list of waypoints with bookkeeping helpers."""

    waypoints: list[Vec3] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.waypoints)

    def __bool__(self) -> bool:
        return len(self.waypoints) > 0

    @property
    def length(self) -> float:
        return path_length(self.waypoints)

    @property
    def goal(self) -> Vec3 | None:
        return self.waypoints[-1] if self.waypoints else None

    def max_corner_angle(self) -> float:
        """The sharpest turn (radians) along the trajectory; 0 for straight paths."""
        import math

        sharpest = 0.0
        for previous, current, following in zip(
            self.waypoints, self.waypoints[1:], self.waypoints[2:]
        ):
            incoming = current - previous
            outgoing = following - current
            if incoming.norm() < 1e-9 or outgoing.norm() < 1e-9:
                continue
            cosine = incoming.normalized().dot(outgoing.normalized())
            cosine = max(-1.0, min(1.0, cosine))
            sharpest = max(sharpest, math.acos(cosine))
        return sharpest


def shortcut_smooth(
    waypoints: list[Vec3],
    segment_is_free,
    max_passes: int = 2,
) -> list[Vec3]:
    """Greedy shortcut smoothing: drop intermediate waypoints when the direct
    segment between their neighbours is collision-free.

    Args:
        waypoints: input polyline.
        segment_is_free: callable ``(a, b) -> bool`` returning True when the
            straight segment is traversable.
        max_passes: number of smoothing sweeps.
    """
    if len(waypoints) <= 2:
        return list(waypoints)
    smoothed = list(waypoints)
    for _ in range(max_passes):
        changed = False
        index = 0
        result = [smoothed[0]]
        while index < len(smoothed) - 1:
            # Try to jump as far ahead as possible from the current waypoint.
            jump = len(smoothed) - 1
            while jump > index + 1:
                if segment_is_free(smoothed[index], smoothed[jump]):
                    changed = True
                    break
                jump -= 1
            result.append(smoothed[jump])
            index = jump
        smoothed = result
        if not changed:
            break
    return smoothed


@dataclass
class TrajectoryFollower:
    """Feeds trajectory waypoints to the autopilot one at a time.

    Attributes:
        trajectory: the trajectory being tracked.
        acceptance_radius: distance at which a waypoint counts as reached.
        current_index: index of the waypoint currently being tracked.
    """

    trajectory: Trajectory
    acceptance_radius: float = 0.8
    current_index: int = 0

    def current_target(self) -> Vec3 | None:
        if not self.trajectory or self.current_index >= len(self.trajectory.waypoints):
            return None
        return self.trajectory.waypoints[self.current_index]

    def advance(self, position: Vec3) -> Vec3 | None:
        """Update progress given the current vehicle position.

        Returns the waypoint to track next, or ``None`` when the trajectory is
        complete.
        """
        target = self.current_target()
        while target is not None and position.distance_to(target) <= self.acceptance_radius:
            self.current_index += 1
            target = self.current_target()
        return target

    @property
    def is_complete(self) -> bool:
        return self.current_index >= len(self.trajectory.waypoints)

    def remaining_waypoints(self) -> list[Vec3]:
        return self.trajectory.waypoints[self.current_index :]
