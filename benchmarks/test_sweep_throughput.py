"""Fault-space sweep throughput: probe evaluations per second.

Times a real-mission severity sweep (one fault spec, a two-point ladder,
the fixed-seed single-scenario smoke suite) through the dispatch probe
backend and records probe-evals/s and runs/s into ``BENCH_results.json``.
The probe backend's cost over a bare dispatched campaign is planning +
merge + curve accumulation per probe, so this number tracks the search
engine's scheduling overhead as well as raw mission throughput.

A second timed pass over the same backend tree must be pure cache (every
probe memoized / served from merged records) — the bench asserts it does
no mission work and records the replay rate separately.
"""

import time

from repro.core.config import mls_v1
from repro.faults.search import DispatchProbeBackend, run_sweep, severity_ladder
from repro.faults.spec import FAULT_PRESETS
from repro.world.scenario_gen import generate_suite

SUITE_PRESET = "smoke"
SUITE_COUNT = 1
SUITE_SEED = 7
LADDER_POINTS = 2


def test_sweep_probe_throughput(bench_results, tmp_path):
    suite = generate_suite(SUITE_PRESET, count=SUITE_COUNT, seed=SUITE_SEED)
    spec = FAULT_PRESETS["smoke"][0]
    severities = severity_ladder(LADDER_POINTS)
    backend = DispatchProbeBackend(
        tmp_path / "probes", suite, [mls_v1()], repetitions=1
    )

    start = time.perf_counter()
    result = run_sweep(backend, [spec], severities, out_dir=tmp_path / "sweep")
    cold_s = time.perf_counter() - start

    probes = len(severities)
    runs = sum(point.counters.runs for point in result.points)
    assert len(result.points) == probes
    assert runs == probes * SUITE_COUNT

    start = time.perf_counter()
    replay = run_sweep(backend, [spec], severities, out_dir=tmp_path / "sweep")
    warm_s = time.perf_counter() - start
    assert replay.points == result.points

    bench_results(
        "sweep_probes",
        probes=float(probes),
        runs=float(runs),
        seconds=cold_s,
        probe_evals_per_s=probes / cold_s,
        runs_per_s=runs / cold_s,
        replay_seconds=warm_s,
        replay_probe_evals_per_s=probes / warm_s,
    )
