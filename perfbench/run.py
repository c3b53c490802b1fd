"""Campaign-throughput benchmark of the landing-system reproduction.

    python3 perfbench/run.py --workload v1-paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  Workloads are defined in
``workloads.py``.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures, measured with no
wrappers installed:

* ``runs_per_s`` — missions flown per second over every campaign of the
  run (serial: ``Campaign.run``; dispatch: plan, workers, merge and the
  rendered ``CampaignAnalysis`` report);
* ``setup_s`` — a fresh process's imports, detector-network load from the
  warm disk cache and suite generation; the median of several processes;
* ``peak_rss_mb`` — the largest resident set of the measuring process and of
  its dispatch worker children.

Both timings are wall seconds rescaled to a reference machine speed by the
probe in ``speed.py``; the plain wall-clock figures go to standard error.

With ``--trace 1`` a separate pair of processes flies the workload: one
untraced campaign, then traced campaigns with timing wrappers around each
layer's public entry points (``spans.py``); the metrics are the per-layer
figures of ``flight.py``, and both processes' records must match.

``correct`` is false when a mission raised, when a record differs from the
committed expectation in ``expected/`` (or, on a suite seed without one,
from the untraced run), or when a dispatch report differs from the report
of the expected records.  Every child process runs in its own session and
is killed, with its workers, if the run overstays its time limit.

Companion scripts: ``selftest.py`` (the benchmark's own quick-mode tests),
``crosscheck.py`` (layer shares against ``python -m repro.obs report
--wall``) and ``expect.py`` (regenerates ``expected/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import PAPER_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Fresh processes timing set-up, besides the measuring process itself.
SETUP_PROBES = 4
#: Whole-run wall limit, seconds (a run must end within 180).
TIME_LIMIT = 170.0

END_TO_END = {
    "runs_per_s": "runs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "vehicle.steps": "count",
    "vehicle.busy_s": "s",
    "world.collision_checks": "count",
    "world.busy_s": "s",
    "sensors.frames": "count",
    "sensors.camera_busy_s": "s",
    "sensors.depth_captures": "count",
    "sensors.depth_points": "count",
    "sensors.depth_busy_s": "s",
    "perception.frames": "count",
    "perception.proposals": "count",
    "perception.target_hit_ratio": "ratio",
    "perception.busy_s": "s",
    "mapping.clouds": "count",
    "mapping.points_fused": "count",
    "mapping.fuse_busy_s": "s",
    "mapping.collision_queries": "count",
    "mapping.collision_busy_s": "s",
    "mapping.occupied_voxels": "count",
    "mapping.map_bytes": "bytes",
    "planning.plans": "count",
    "planning.iterations": "count",
    "planning.success_ratio": "ratio",
    "planning.busy_s": "s",
    "planning.plan_p50_ms": "ms",
    "planning.plan_tail_ms": "ms",
    "planning.plan_tail_pct": "%",
    "planning.plan_samples": "count",
    "core.ticks": "count",
    "core.decide_self_s": "s",
    "core.tick_p50_ms": "ms",
    "core.tick_tail_ms": "ms",
    "core.tick_tail_pct": "%",
    "core.tick_samples": "count",
    "core.missions": "count",
    "core.mission_wall_s": "s",
    "core.runner_self_s": "s",
    "core.mission_p50_s": "s",
    "core.mission_tail_s": "s",
    "core.mission_tail_pct": "%",
    "core.mission_samples": "count",
    "faults.calls": "count",
    "faults.busy_s": "s",
    "faults.activations": "count",
    "dispatch.plan_s": "s",
    "dispatch.merge_s": "s",
    "dispatch.worker_overhead_s": "s",
    "dispatch.worker_imbalance": "ratio",
    "analysis.records": "count",
    "analysis.report_s": "s",
    "bench.campaign_self_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.error_rate": "ratio",
}


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts ``flight.py`` children against one deadline and work dir."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT
        self.env = dict(os.environ)
        # The detector-network disk cache lives in the checkout, like every
        # other file the benchmark writes.
        tmp = WORK / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env["TMPDIR"] = str(tmp)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")])
        )

    def child(self, mode: str, *extra: str) -> dict:
        out = self.work / f"child-{time.monotonic_ns()}.json"
        command = [
            sys.executable, str(HERE / "flight.py"), mode,
            "--workload", self.args.workload,
            "--suite-seed", str(self.args.suite_seed),
            "--expected", str(self.args.expected),
            "--work", str(self.work / "flight"),
            "--out", str(out),
            *extra,
        ]
        if self.args.quick:
            command.append("--quick")
        process = subprocess.Popen(
            command, env=self.env, stdout=sys.stderr, start_new_session=True
        )
        try:
            code = process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The child's session holds any dispatch workers it forked.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if code != 0:
            raise ChildFailed(f"flight.py {mode} {'timed out' if code is None else f'exited {code}'}")
        return json.loads(out.read_text(encoding="utf-8"))


def _rate(measured: dict, seconds: str = "ref_seconds") -> float:
    campaigns = measured["campaigns"]
    return sum(c["missions"] for c in campaigns) / sum(c[seconds] for c in campaigns)


def end_to_end(runner: Runner) -> dict:
    setups = [runner.child("setup") for _ in range(SETUP_PROBES)]
    measured = runner.child(
        "measure", "--seed", str(runner.args.seed), "--seconds", str(runner.args.seconds)
    )
    setups.append(measured)
    print(
        f"perfbench: wall runs/s {_rate(measured, 'seconds'):.4f}, wall set-up "
        f"{statistics.median(s['setup_s'] for s in setups):.4f} s; campaign seconds "
        + " ".join(f"{c['seconds']:.3f}/{c['ref_seconds']:.3f}" for c in measured["campaigns"]),
        file=sys.stderr,
    )
    return {
        "correct": measured["failed"] == 0 and not measured["errors"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            "runs_per_s": _rate(measured),
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "peak_rss_mb": measured["peak_rss_mb"],
        },
    }


def per_layer(runner: Runner) -> dict:
    started = time.monotonic()
    seed = str(runner.args.seed)
    plain = runner.child("measure", "--seed", seed, "--campaigns", "1")
    remaining = max(0.0, runner.args.seconds - (time.monotonic() - started))
    traced = runner.child("measure", "--seed", seed, "--seconds", str(remaining), "--trace")
    # Tracing is a side channel: the traced records must equal the untraced.
    diverged = sum(
        1 for key in set(plain["digests"]) | set(traced["digests"])
        if plain["digests"].get(key) != traced["digests"].get(key)
    )
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"] + diverged
    metrics = dict(traced["layers"])
    metrics["bench.trace_overhead"] = _rate(plain) / _rate(traced) - 1.0
    metrics["bench.error_rate"] = failed / attempted
    return {
        "correct": failed == 0 and traced["counts_repeat"]
        and not plain["errors"] and not traced["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--suite-seed", type=int, default=PAPER_SEED,
        help=f"paper-suite seed; expectations are committed for {PAPER_SEED} only",
    )
    parser.add_argument(
        "--expected", type=Path, default=HERE / "expected",
        help="directory of expected records and reports",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fly a one-mission slice once (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.quick:
        args.seconds = 0.0

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner = Runner(args, work)
        # The first set-up in a fresh checkout trains and caches the
        # detector network: done here, before any timed region.
        runner.child("setup")
        result = per_layer(runner) if args.trace else end_to_end(runner)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
