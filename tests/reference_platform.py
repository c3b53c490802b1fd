"""The Jetson Nano platform as it was with its utilisation log.

``ReferenceJetsonNanoPlatform`` is ``JetsonNanoPlatform`` from before the
platform stopped keeping state nothing read: a ``ResourceMonitor`` fed one
``UtilisationSample`` per tick (with four per-core utilisations drawn from
the platform's generator), a tick counter, a deadline-miss counter and a
``processing_latency`` on every budget.  It is kept as it was so the tests
can schedule any tick sequence on both and demand equal budgets and an
equal generator state after every tick.  Only the class names differ from
the originals, and ``ReferenceTickBudget`` keeps the budget's old fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hil.jetson import JetsonNanoSpec


@dataclass(frozen=True)
class ReferenceTickBudget:
    """What the platform managed to do within one decision period."""

    allow_replan: bool = True
    skip_mapping: bool = False
    processing_latency: float = 0.0
    cpu_utilisation: float = 0.0
    memory_mb: float = 0.0
    gpu_utilisation: float = 0.0
    deadline_missed: bool = False


@dataclass(frozen=True)
class UtilisationSample:
    """One monitoring sample."""

    timestamp: float
    cpu_utilisation: float      # 0-1 averaged over cores
    memory_mb: float
    gpu_utilisation: float      # 0-1
    per_core_utilisation: tuple[float, ...] = ()


@dataclass
class ResourceMonitor:
    """Accumulates utilisation samples over a run or a campaign."""

    samples: list[UtilisationSample] = field(default_factory=list)

    def record(self, sample: UtilisationSample) -> None:
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)


class ReferenceJetsonNanoPlatform:
    """ExecutionPlatform implementation modelling the Jetson Nano (MAXN)."""

    def __init__(self, spec: JetsonNanoSpec | None = None, seed: int = 0) -> None:
        self.spec = spec or JetsonNanoSpec()
        self.monitor = ResourceMonitor()
        self._rng = np.random.default_rng(seed)
        self._lag = 0.0           # accumulated processing backlog, seconds
        self._time = 0.0
        # Returns the live map's size in bytes once a subclass binds it; the
        # HIL Nano charges no map memory.
        self._map_memory_provider = None
        self.deadline_misses = 0
        self.ticks = 0

    def schedule_tick(self, timings, tick_period: float) -> ReferenceTickBudget:
        """Charge one decision tick's workload to the Nano."""
        spec = self.spec
        self.ticks += 1
        self._time += tick_period

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
        if deadline_missed:
            self.deadline_misses += 1

        cpu_utilisation = min(1.0, (cpu_time / spec.cpu_cores + gpu_time * 0.1) / tick_period)
        gpu_utilisation = min(1.0, gpu_time / tick_period)
        memory_mb = self._memory_mb()

        self.monitor.record(
            UtilisationSample(
                timestamp=self._time,
                cpu_utilisation=cpu_utilisation,
                memory_mb=memory_mb,
                gpu_utilisation=gpu_utilisation,
                per_core_utilisation=self._per_core(cpu_utilisation),
            )
        )

        return ReferenceTickBudget(
            allow_replan=not deadline_missed,
            skip_mapping=self._lag > 0.6 * tick_period,
            processing_latency=tick_wall_time,
            cpu_utilisation=cpu_utilisation,
            memory_mb=memory_mb,
            gpu_utilisation=gpu_utilisation,
            deadline_missed=deadline_missed,
        )

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

    def _per_core(self, mean_utilisation: float) -> tuple[float, ...]:
        cores = []
        for _ in range(self.spec.cpu_cores):
            cores.append(float(np.clip(mean_utilisation * self._rng.uniform(0.85, 1.15), 0.0, 1.0)))
        return tuple(cores)
