"""Machine-speed probe: rescales wall seconds to a fixed reference speed.

A small virtual machine shares its cores with other tenants, and the speed
of a CPU-bound Python process drifts on it by up to 1.7x within minutes
(measured on a 2-core guest: the same two-mission campaign took 2.0 s and
3.8 s a minute apart).  Drift that large would swamp any change to the
program, so every timed region is bracketed by this probe: a fixed mix of
the three kinds of work the mission loop does — interpreted arithmetic,
small-object method calls (like ``Vec3`` maths) and NumPy image-sized
array work.  On that guest, dividing campaign times by the probe cut their
run-to-run spread (quartile distance over median, five runs) from 14% to 7%.

``reference_seconds(wall, probe)`` is ``wall`` as it would read on a
machine where the probe takes :data:`REFERENCE_PROBE_S`.  The probe belongs
to the benchmark, not the program, so a change to the program moves the
rescaled figures exactly as it moves the wall-clock ones.
"""

from __future__ import annotations

import multiprocessing
import statistics
from time import perf_counter

import numpy as np

#: Probe time on the reference machine state (the fast state of the 2-core
#: guest the benchmark was tuned on).
REFERENCE_PROBE_S = 0.040


class _Vec:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x, self.y, self.z = x, y, z

    def __add__(self, other: "_Vec") -> "_Vec":
        return _Vec(self.x + other.x, self.y + other.y, self.z + other.z)

    def scaled(self, k: float) -> "_Vec":
        return _Vec(self.x * k, self.y * k, self.z * k)


_RNG = np.random.default_rng(0)
_IMAGE = _RNG.random((240, 320))
_PICKS = _RNG.integers(0, _IMAGE.size, size=50_000)


def _task() -> float:
    total = 0.0
    for i in range(150_000):
        total += (i * 0.5) % 7.0
    values = np.arange(20_000, dtype=float)
    for _ in range(150):
        values = np.sqrt(values * values + 1.0)
    vec, step = _Vec(0.0, 0.0, 0.0), _Vec(0.1, 0.2, 0.3)
    for _ in range(30_000):
        vec = (vec + step).scaled(0.999)
    for _ in range(30):
        image = _IMAGE * 1.5 + 0.2
        total += float(image.ravel()[_PICKS].sum()) + float((image > 0.7).sum())
    return total + float(values[-1]) + vec.x


def _probe_one(repeats: int = 3) -> float:
    """Median seconds of ``repeats`` runs of the fixed task."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _task()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _probe_child(conn) -> None:
    conn.send(_probe_one())
    conn.close()


def probe(processes: int = 1) -> float:
    """Probe seconds; with ``processes`` > 1, the mean over that many forked
    processes probing at once (for work spread over several cores)."""
    if processes == 1:
        return _probe_one()
    context = multiprocessing.get_context("fork")
    pipes, children = [], []
    for _ in range(processes):
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_probe_child, args=(send,))
        child.start()
        send.close()
        pipes.append(receive)
        children.append(child)
    try:
        return statistics.fmean(pipe.recv() for pipe in pipes)
    finally:
        for child in children:
            child.join()


def reference_seconds(wall: float, probe_seconds: float) -> float:
    return wall * REFERENCE_PROBE_S / probe_seconds


class Clock:
    """Times a region in laps, probing the machine between laps.

    Each lap's wall seconds are rescaled by the mean of the probes on either
    side of it; probe time itself is not counted.  A serial campaign laps
    after every mission (``Campaign.progress``), so a 10-second V3 campaign
    is rescaled from several samples of the machine's speed instead of two.
    A dispatched campaign keeps two cores busy, so it is probed on two.
    """

    def __init__(self, processes: int = 1) -> None:
        self._processes = processes
        self._probe = probe(processes)
        self._lap_start = 0.0
        self.wall = 0.0
        self.reference = 0.0

    def start(self) -> None:
        self.wall = self.reference = 0.0
        self._lap_start = perf_counter()

    def lap(self, *_: object) -> None:
        """End the current lap, probe, and start the next one."""
        seconds = perf_counter() - self._lap_start
        before, self._probe = self._probe, probe(self._processes)
        self.wall += seconds
        self.reference += reference_seconds(seconds, 0.5 * (before + self._probe))
        self._lap_start = perf_counter()
