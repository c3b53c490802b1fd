"""One benchmark child process: probe set-up, or measure.

``run.py`` starts this script in a fresh interpreter for every step, so no
process-wide cache one step builds (the ``lru_cache``d detector network,
the per-scenario ``StaticGeometry``) ever serves another.

    python3 perfbench/flight.py setup   --workload W --work D --out F
    python3 perfbench/flight.py measure --workload W --work D --out F
                                        --seed N --seconds T
                                        [--campaigns K] [--trace] [--quick]

``setup`` builds the workload (imports, detector network from the disk
cache, suite generation) and reports how long that took; the first one in a
fresh checkout also trains and caches the network.

``measure`` flies campaigns back to back until ``--seconds`` have passed
(or ``--campaigns`` were flown), then checks every record and report and
writes one JSON document to ``--out``.
"""

import time

# The set-up clock starts before anything of the program is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
from workloads import (  # noqa: E402
    PAPER_SEED,
    WORKLOADS,
    Flight,
    load_expected,
    record_data,
    record_key,
    report_path,
)

#: Counts that must repeat exactly from campaign to campaign.
EXACT_COUNTS = (
    "vehicle.steps",
    "sensors.frames",
    "sensors.depth_points",
    "perception.proposals",
    "mapping.points_fused",
    "mapping.collision_queries",
    "planning.iterations",
    "core.ticks",
    "faults.activations",
)


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def _distribution(values):
    """(median, tail, tail percentile, samples): the tail is the highest of
    75/90/95/99/99.9 with at least ten samples beyond it, else the median."""
    import numpy as np

    if not values:
        return 0.0, 0.0, 50.0, 0
    data = np.asarray(values, dtype=float)
    tail_pct = 50.0
    for pct in (75.0, 90.0, 95.0, 99.0, 99.9):
        if len(data) * (1.0 - pct / 100.0) >= 10.0:
            tail_pct = pct
    return (
        float(np.percentile(data, 50.0)),
        float(np.percentile(data, tail_pct)),
        tail_pct,
        len(data),
    )


def _exact_counts(tracer) -> dict[str, int]:
    calls, counts = tracer.calls, tracer.counts
    return {
        "vehicle.steps": calls["vehicle.step"],
        "sensors.frames": calls["sensors.camera"],
        "sensors.depth_points": counts["sensors.depth_points"],
        "perception.proposals": counts["perception.proposals"],
        "mapping.points_fused": counts["mapping.points_fused"],
        "mapping.collision_queries": calls["mapping.collision"],
        "planning.iterations": counts["planning.iterations"],
        "core.ticks": calls["core.decide"],
        "faults.activations": counts["faults.activations"],
    }


def _worker_figures(spans, campaigns: int) -> tuple[float, float]:
    """Per campaign: summed worker wall minus the missions inside it, and
    the slowest worker's shard time over the mean (median over campaigns)."""
    overheads, imbalances = [], []
    for campaign in range(campaigns):
        workers = [s for s in spans if s["name"] == "dispatch.worker" and s["campaign"] == campaign]
        if not workers:
            continue
        overhead, busy = 0.0, []
        for worker in workers:
            inside = [
                s for s in spans
                if s["pid"] == worker["pid"] and s["campaign"] == campaign
                and worker["start"] <= s["start"] and s["end"] <= worker["end"]
            ]
            missions = sum(s["end"] - s["start"] for s in inside if s["name"] == "core.mission")
            overhead += (worker["end"] - worker["start"]) - missions
            busy.append(sum(s["end"] - s["start"] for s in inside if s["name"] == "bench.campaign"))
        overheads.append(overhead)
        mean = sum(busy) / len(busy)
        imbalances.append(max(busy) / mean if mean > 0 else 1.0)
    if not overheads:
        return 0.0, 0.0
    overheads.sort()
    imbalances.sort()
    return overheads[len(overheads) // 2], imbalances[len(imbalances) // 2]


def layer_metrics(tracer, campaigns: int, analysed_records: int) -> dict[str, float]:
    """Per-layer figures per campaign (timings pooled over campaigns)."""
    calls, self_s, counts, samples = tracer.calls, tracer.self_s, tracer.counts, tracer.samples

    def per(value):
        return value / campaigns

    plans = counts["planning.plans"]
    frames = calls["perception.frame"]
    plan = _distribution(samples["planning.plan"])
    tick = _distribution(samples["core.decide"])
    mission = _distribution(samples["core.mission"])
    overhead, imbalance = _worker_figures(tracer.spans, campaigns)
    metrics = {
        "vehicle.busy_s": per(self_s["vehicle.step"]),
        "world.collision_checks": per(calls["world.collision"]),
        "world.busy_s": per(self_s["world.collision"]),
        "sensors.camera_busy_s": per(self_s["sensors.camera"]),
        "sensors.depth_captures": per(calls["sensors.depth"]),
        "sensors.depth_busy_s": per(self_s["sensors.depth"]),
        "perception.frames": per(frames),
        "perception.target_hit_ratio": counts["perception.target_frames"] / frames if frames else 0.0,
        "perception.busy_s": per(self_s["perception.frame"]),
        "mapping.clouds": per(calls["mapping.fuse"]),
        "mapping.fuse_busy_s": per(self_s["mapping.fuse"]),
        "mapping.collision_busy_s": per(self_s["mapping.collision"]),
        "mapping.occupied_voxels": per(counts["mapping.occupied_voxels"]),
        "mapping.map_bytes": max(samples["mapping.map_bytes"], default=0.0),
        "planning.plans": per(plans),
        "planning.success_ratio": counts["planning.successes"] / plans if plans else 0.0,
        "planning.busy_s": per(self_s["planning.plan"]),
        "planning.plan_p50_ms": 1e3 * plan[0],
        "planning.plan_tail_ms": 1e3 * plan[1],
        "planning.plan_tail_pct": plan[2],
        "planning.plan_samples": plan[3],
        "core.decide_self_s": per(self_s["core.decide"]),
        "core.tick_p50_ms": 1e3 * tick[0],
        "core.tick_tail_ms": 1e3 * tick[1],
        "core.tick_tail_pct": tick[2],
        "core.tick_samples": tick[3],
        "core.missions": per(calls["core.mission"]),
        "core.mission_wall_s": per(sum(samples["core.mission"])),
        "core.runner_self_s": per(self_s["core.mission"]),
        "core.mission_p50_s": mission[0],
        "core.mission_tail_s": mission[1],
        "core.mission_tail_pct": mission[2],
        "core.mission_samples": mission[3],
        "faults.calls": per(calls["faults.call"]),
        "faults.busy_s": per(self_s["faults.call"]),
        "dispatch.plan_s": per(self_s["dispatch.plan"]),
        "dispatch.merge_s": per(self_s["dispatch.merge"]),
        "dispatch.worker_overhead_s": overhead,
        "dispatch.worker_imbalance": imbalance,
        "analysis.records": per(analysed_records),
        "analysis.report_s": per(self_s["analysis.report"]),
        "bench.campaign_self_s": per(self_s["bench.campaign"]),
    }
    metrics.update({name: per(value) for name, value in _exact_counts(tracer).items()})
    return metrics


def _check(flight, suite, expected, flown, committed_report):
    """Count the missions of each flown campaign that raised or whose
    record (or rendered report) differs from what is expected."""
    failed = 0
    order = [f"{scenario.scenario_id}#0" for scenario in suite.scenarios]
    reference = expected
    if reference is None:
        # No committed expectation for this suite seed: every campaign must
        # repeat the first one.
        first = next((c for c in flown if c["error"] is None), None)
        reference = first["data"] if first else {}
    expected_report = None
    if flight.workload.dispatched and all(key in reference for key in order):
        expected_report = flight.render_report([reference[key] for key in order], suite)
    for campaign in flown:
        if campaign["error"] is not None:
            campaign["failed"] = len(order)
        else:
            data = campaign["data"]
            bad = sum(1 for key in order if data.get(key) != reference.get(key))
            bad += sum(1 for key in data if key not in order)
            if flight.workload.dispatched and campaign["report"] != expected_report:
                bad = len(order)
            campaign["failed"] = bad
        failed += campaign["failed"]
    if committed_report is not None:
        canonical = [f"{s.scenario_id}#0" for s in flight.suite.scenarios]
        if flight.render_report([expected[key] for key in canonical], flight.suite) != committed_report:
            failed += 1
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--expected", type=Path, default=HERE / "expected")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suite-seed", type=int, default=PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--campaigns", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import spans

        tracer = spans.install(args.work / "handoff")
    flight = Flight(workload, args.suite_seed, args.quick)
    setup_s = time.perf_counter() - _T0
    setup = {"setup_s": setup_s, "setup_ref_s": speed.reference_seconds(setup_s, speed.probe())}
    if args.mode == "setup":
        args.out.write_text(json.dumps(setup), encoding="utf-8")
        return 0

    expected = load_expected(args.expected, workload, args.suite_seed)
    committed_report = None
    if expected is not None and workload.dispatched and not args.quick:
        committed_report = report_path(args.expected, workload).read_text(encoding="utf-8")
    suite = flight.ordered(args.seed)

    flown = []
    per_campaign_counts = []
    analysed = 0
    clock = speed.Clock(max(1, workload.workers))
    started = time.perf_counter()
    while True:
        directory = args.work / f"campaign-{len(flown)}"
        shutil.rmtree(directory, ignore_errors=True)
        if tracer is not None:
            tracer.campaign = len(flown)
        error, records, report = None, [], None
        # Traced campaigns are probed only between campaigns, so probe time
        # never lands inside a span.
        clock.start()
        try:
            records, report = flight.fly(suite, directory, None if tracer else clock.lap)
        except Exception as exc:  # a raising mission fails its campaign
            error = f"{type(exc).__name__}: {exc}"
        clock.lap()
        if tracer is not None:
            tracer.collect_handoffs()
            per_campaign_counts.append(_exact_counts(tracer))
            if report is not None:
                analysed += len(records)
        shutil.rmtree(directory, ignore_errors=True)
        flown.append({
            "seconds": clock.wall,
            "ref_seconds": clock.reference,
            "missions": len(suite.scenarios),
            "error": error,
            "report": report,
            "data": {record_key(r): record_data(r) for r in records},
        })
        if error is not None or len(flown) == args.campaigns:
            break
        # Fly another campaign only if it should end nearer the deadline
        # than stopping now does: about round(seconds / campaign) of them.
        elapsed = time.perf_counter() - started
        if not args.campaigns and elapsed + 0.5 * elapsed / len(flown) >= args.seconds:
            break

    failed = _check(flight, suite, expected, flown, committed_report)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        **setup,
        "campaigns": [
            {key: c[key] for key in ("seconds", "ref_seconds", "missions", "failed")}
            for c in flown
        ],
        "errors": [c["error"] for c in flown if c["error"] is not None],
        "attempted": sum(c["missions"] for c in flown),
        "failed": failed,
        "digests": {key: _digest(value) for key, value in flown[0]["data"].items()},
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if tracer is not None:
        deltas = [
            {name: after[name] - before.get(name, 0) for name in EXACT_COUNTS}
            for before, after in zip([{}] + per_campaign_counts, per_campaign_counts)
        ]
        result["counts_repeat"] = all(delta == deltas[0] for delta in deltas)
        result["layers"] = layer_metrics(tracer, len(flown), analysed)
        trace_path = ROOT / ".perfbench_work" / "traces" / f"{workload.name}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
