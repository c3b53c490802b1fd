"""Jetson Nano execution-platform model.

The HIL campaign runs the same landing software but charges its module
workload to a Jetson-Nano-class compute budget:

* four CPU cores, shared by mapping, planning, the state machine and the OS
  (the paper: "all four CPU cores heavily utilised", CPU is "the primary
  bottleneck");
* a small GPU running TensorRT-optimised detector inference;
* ~2.9 GB of usable RAM, of which the landing system consumes ~2.2 GB.

The scheduling model is deliberately simple and mechanistic: each decision
tick's module latencies are scaled from desktop-class to Nano-class, queueing
lag accumulates when a tick's work exceeds the decision period, and while the
platform is lagging the scheduler disallows replanning and occasionally skips
a mapping update — which is how the paper explains the extra HIL collisions
("trajectories failed to create in time when the drone was heading towards a
newly discovered obstacle").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.platform import ExecutionPlatform, TickBudget


@dataclass(frozen=True)
class JetsonNanoSpec:
    """Hardware characteristics of the companion computer."""

    cpu_cores: int = 4
    cpu_slowdown: float = 3.2          # Nano core vs desktop core on our CPU-bound modules
    gpu_inference_latency: float = 0.022   # TensorRT-optimised detector, per frame
    usable_memory_mb: float = 2900.0
    base_memory_mb: float = 1450.0     # OS + ROS-like middleware + model weights
    memory_per_map_mb: float = 0.00015  # per occupancy-map byte, MB
    camera_io_cpu_load: float = 0.0    # extra continuous CPU load (real-world adds this)
    camera_io_memory_mb: float = 0.0   # extra buffers for live camera streams

    @staticmethod
    def real_world() -> "JetsonNanoSpec":
        """The same Nano but also handling live camera I/O (Fig. 7)."""
        return JetsonNanoSpec(camera_io_cpu_load=0.30, camera_io_memory_mb=450.0)


class JetsonNanoPlatform(ExecutionPlatform):
    """ExecutionPlatform implementation modelling the Jetson Nano (MAXN)."""

    def __init__(self, spec: JetsonNanoSpec | None = None, seed: int = 0) -> None:
        self.spec = spec or JetsonNanoSpec()
        self._rng = np.random.default_rng(seed)
        self._lag = 0.0           # accumulated processing backlog, seconds
        # Returns the live map's size in bytes once a subclass binds it; the
        # HIL Nano charges no map memory.
        self._map_memory_provider = None

    # ------------------------------------------------------------------ #
    # ExecutionPlatform interface
    # ------------------------------------------------------------------ #
    def schedule_tick(self, timings, tick_period: float) -> TickBudget:
        """Charge one decision tick's workload to the Nano."""
        spec = self.spec

        # Detection runs on the GPU through TensorRT; everything else is CPU.
        gpu_time = spec.gpu_inference_latency if timings.detection > 0 else 0.0
        cpu_time = (timings.mapping + timings.planning) * spec.cpu_slowdown
        # State-machine / middleware overhead plus any camera I/O handling.
        cpu_time += 0.012 * spec.cpu_slowdown / 4.0
        cpu_time += spec.camera_io_cpu_load * tick_period
        # Small stochastic jitter: contention with background threads.
        cpu_time *= float(self._rng.uniform(0.92, 1.18))

        # The four cores work in parallel on different modules, but the
        # critical path (planning) is single-threaded; approximate the tick's
        # wall time as the critical path plus a parallelisable remainder.
        critical_path = max(gpu_time, timings.planning * spec.cpu_slowdown)
        parallel_work = max(0.0, cpu_time - timings.planning * spec.cpu_slowdown)
        tick_wall_time = critical_path + parallel_work / spec.cpu_cores

        self._lag = max(0.0, self._lag + tick_wall_time - tick_period)
        deadline_missed = self._lag > 0.25 * tick_period

        cpu_utilisation = min(1.0, (cpu_time / spec.cpu_cores + gpu_time * 0.1) / tick_period)
        # One unread uniform draw per core: the draws keep every later
        # tick's jitter, and so every record, where it is.
        self._rng.random(spec.cpu_cores)

        return TickBudget(
            allow_replan=not deadline_missed,
            skip_mapping=self._lag > 0.6 * tick_period,
            cpu_utilisation=cpu_utilisation,
            memory_mb=self._memory_mb(),
            gpu_utilisation=min(1.0, gpu_time / tick_period),
            deadline_missed=deadline_missed,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _memory_mb(self) -> float:
        spec = self.spec
        map_bytes = 0
        if self._map_memory_provider is not None:
            map_bytes = self._map_memory_provider()
        memory = (
            spec.base_memory_mb
            + spec.camera_io_memory_mb
            + map_bytes * spec.memory_per_map_mb
            + 650.0  # detector runtime, point-cloud buffers, planner state
        )
        return min(spec.usable_memory_mb, memory)
