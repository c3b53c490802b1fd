"""Campaign throughput: serial vs parallel vs dispatched execution.

Times the same fixed-seed smoke campaign through the three execution paths
— in-process serial, 2-process ``.parallel()``, and a 2-worker sharded
dispatch (``repro.dispatch``) — and records runs/sec for each into
``BENCH_results.json`` alongside the microbench metrics, so the overhead of
the work-queue machinery (and any future scheduling regressions) shows up
in the perf trajectory.

The three paths must also agree on the outcomes: identical per-system
record dicts are asserted, not just identical counts.
"""

import statistics
import time

from repro.bench.campaign import Campaign
from repro.core.config import mls_v1, mls_v2, mls_v3
from repro.geometry import Pose, Quaternion, Vec3
from repro.obs.trace import FlightRecorder
from repro.perception.neural.training import load_pretrained_detector_net
from repro.sensors.camera import DownwardCamera
from repro.world.scenario_gen import generate_suite

#: Fixed-seed campaign shared by the three execution paths.
SUITE_PRESET = "smoke"
SUITE_COUNT = 2
SUITE_SEED = 7
#: Lockstep rounds behind the traced-overhead median.
OVERHEAD_ROUNDS = 5


def _campaign():
    return (
        Campaign(mls_v1())
        .suite(generate_suite(SUITE_PRESET, count=SUITE_COUNT, seed=SUITE_SEED))
        .repetitions(1)
    )


def _timed(run):
    start = time.perf_counter()
    results = run()
    elapsed = time.perf_counter() - start
    return results, elapsed


def _record_dicts(result):
    """Record dicts minus ``scenario_fingerprint``, which only persisted
    (``.out()`` / dispatched) campaigns stamp."""
    dicts = [record.to_dict() for record in result.records]
    for data in dicts:
        data.pop("scenario_fingerprint", None)
    return dicts


def test_campaign_throughput_serial_parallel_dispatched(bench_results, tmp_path):
    serial, serial_s = _timed(lambda: _campaign().run())
    parallel, parallel_s = _timed(lambda: _campaign().parallel(2).run())
    dispatched, dispatched_s = _timed(
        lambda: _campaign().dispatch(tmp_path / "dispatch", shards=2, workers=2)
    )

    runs = sum(len(result) for result in serial.values())
    assert runs == SUITE_COUNT
    for label, results in (("parallel", parallel), ("dispatched", dispatched)):
        for name, reference in serial.items():
            assert _record_dicts(results[name]) == _record_dicts(reference), (
                f"{label} outcomes diverge from serial for {name}"
            )

    for name, elapsed in (
        ("campaign_serial", serial_s),
        ("campaign_parallel_2workers", parallel_s),
        ("campaign_dispatched_2workers", dispatched_s),
    ):
        bench_results(
            name,
            runs=float(runs),
            seconds=elapsed,
            runs_per_s=runs / elapsed,
        )


def _serial_single_scenario_meter(bench_results, name, system):
    """Record serial runs/s of ``system`` on one fixed smoke scenario.

    The detector network is loaded (and on first use trained) before timing.
    """
    load_pretrained_detector_net()
    campaign = (
        Campaign(system)
        .suite(generate_suite(SUITE_PRESET, count=1, seed=SUITE_SEED))
        .repetitions(1)
    )
    results, elapsed = _timed(campaign.run)
    runs = sum(len(result) for result in results.values())
    assert runs == 1
    bench_results(name, runs=float(runs), seconds=elapsed, runs_per_s=runs / elapsed)


def test_campaign_throughput_serial_v3(bench_results):
    """MLS-V3 serial runs/s on one fixed smoke scenario.

    Octree fusion, inflated collision checks and RRT* dominate MLS-V3's
    mission time, so this meter holds the map and plan stack's speed.
    """
    _serial_single_scenario_meter(bench_results, "campaign_serial_v3", mls_v3())


def test_campaign_throughput_serial_v2(bench_results):
    """MLS-V2 serial runs/s on one fixed smoke scenario.

    The learned detector and the camera dominate MLS-V2's mission time,
    ahead of the dense grid and local A*, so this meter holds the per-frame
    front end's speed for the second generation.
    """
    _serial_single_scenario_meter(bench_results, "campaign_serial_v2", mls_v2())


def _unrecorded_campaign_run():
    """A campaign whose flight recorders record nothing.

    Run only in a forked ``lockstep`` child, so the no-op stubs never reach
    the calling process.
    """
    def noop(*args, **kwargs):
        return None

    FlightRecorder.add = FlightRecorder.count = FlightRecorder.charge_nominal = noop
    return _campaign().run()


def test_traced_campaign_overhead_under_5_percent(bench_results, lockstep, tmp_path):
    """The always-on flight recorder must cost under 5% of a campaign.

    Every mission records its spans, counters and nominal costs, traced or
    not, so the baseline is a campaign whose recorder methods are stubbed to
    no-ops, and the compared run is the real traced campaign, which also
    writes its summaries.  The recorder sits on the same per-tick hot path
    as the fault-harness hooks, so it gets the no-op harness bench's bound
    and measurement: the median CPU-time ratio of a few ``lockstep`` rounds
    (robust on shared runners), identical record dicts asserted, and the
    traced throughput recorded for the perfgate trajectory.
    """
    ratios, traced_cpu = [], []
    for round_index in range(OVERHEAD_ROUNDS):
        trace_dir = tmp_path / f"trace-{round_index}"
        (baseline_s, baseline_results), (traced_s, traced_results) = lockstep(
            _unrecorded_campaign_run,
            lambda: _campaign().trace(trace_dir).run(),
        )
        ratios.append(traced_s / baseline_s)
        traced_cpu.append(traced_s)

    for name, reference in baseline_results.items():
        assert _record_dicts(traced_results[name]) == _record_dicts(reference), (
            f"the flight recorder changed campaign outcomes for {name}"
        )
    trace_file = tmp_path / "trace-0" / "MLS-V1.trace.jsonl"
    assert trace_file.exists()
    assert len(trace_file.read_text().splitlines()) == 1 + SUITE_COUNT

    runs = sum(len(result) for result in traced_results.values())
    overhead = statistics.median(ratios) - 1.0
    traced_s = statistics.median(traced_cpu)
    bench_results(
        "campaign_traced",
        runs=float(runs),
        seconds=traced_s,
        runs_per_s=runs / traced_s,
        overhead_fraction=overhead,
    )
    assert overhead < 0.05, (
        f"the flight recorder costs {100.0 * overhead:.1f}% over a campaign that "
        f"records nothing (median CPU-time ratio of {OVERHEAD_ROUNDS} lockstep "
        f"rounds); it must stay under 5%"
    )


def test_batched_projection_rate(bench_results):
    """Pixel -> ground projection rate of the vectorized camera front end.

    Renders full frames from a sweep of tilted poses and reports ground-plane
    projections per second (pixels per frame times frames), the classic
    figure of merit for camera-to-ground mapping loops.  Tracked so a
    regression in the batched projection/render path shows up even when the
    campaign meter is dominated by non-camera work.
    """
    from repro.world.scenario import Scenario  # local: heavy world imports
    from repro.world.map_generator import MapStyle

    scenario = generate_suite(SUITE_PRESET, count=1, seed=SUITE_SEED).scenarios[0]
    assert isinstance(scenario, Scenario) and isinstance(scenario.map_style, MapStyle)
    world = scenario.build_world()
    camera = DownwardCamera(seed=3)
    intr = camera.intrinsics
    frames = 60
    poses = [
        Pose(
            position=Vec3(2.0 * i - frames, 1.5 * i % 30.0, 12.0 + (i % 5)),
            orientation=Quaternion.from_euler(0.02 * (i % 7), 0.015 * (i % 5), 0.1 * i),
        )
        for i in range(frames)
    ]
    start = time.perf_counter()
    for pose in poses:
        camera.capture(world, pose, timestamp=0.04 * len(poses))
    elapsed = time.perf_counter() - start

    projections = frames * intr.width * intr.height
    bench_results(
        "projection_batch",
        frames=float(frames),
        seconds=elapsed,
        projections_per_s=projections / elapsed,
    )
