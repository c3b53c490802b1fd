"""Distributed dispatch CLI: ``python -m repro.dispatch``.

Subcommands:

* ``plan`` — split a campaign (suite x systems x repetitions) into
  content-fingerprinted shard manifests under a dispatch directory.
* ``work`` — run one worker against a dispatch directory: claim shards,
  fly them, heartbeat, publish completion.  Start as many as you like, on
  as many machines as share the directory.
* ``status`` — per-shard queue state (pending / running / stale / done).
* ``merge`` — combine the per-shard outputs into ``<dir>/merged/``,
  byte-identical to a single-process run of the same campaign.
* ``run`` — local convenience: plan (if needed) + N worker processes +
  merge, in one command.

Example — three shards, two machines::

    machine-a$ python -m repro.dispatch plan runs/stress \\
                   --preset stress --seed 7 --shards 3 --systems mls-v1,mls-v3
    machine-a$ python -m repro.dispatch work runs/stress
    machine-b$ python -m repro.dispatch work runs/stress      # shared volume
    machine-a$ python -m repro.dispatch merge runs/stress
    machine-a$ python -m repro.analysis summarize runs/stress
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.dispatch.merge import load_merged, merge_dispatch
from repro.dispatch.planner import merged_dir, plan_dispatch
from repro.dispatch.queue import DEFAULT_LEASE_SECONDS, ShardQueue
from repro.dispatch.worker import (
    DEFAULT_POLL_SECONDS,
    run_local_workers,
    run_worker,
)


def _systems(arg: str):
    from repro.core.config import preset

    return [preset(name.strip()) for name in arg.split(",") if name.strip()]


def _add_plan_args(parser: argparse.ArgumentParser) -> None:
    from repro.bench.campaign import PLATFORM_FACTORIES
    from repro.world.scenario_gen import PRESET_NAMES

    parser.add_argument(
        "--preset", default="stress", choices=sorted(PRESET_NAMES),
        help="suite preset to sample from (default: stress)",
    )
    parser.add_argument("--suite", default=None, help="plan over a suite JSONL file instead")
    parser.add_argument(
        "--spec", default=None,
        help="plan over a SuiteSpec JSON file (see SuiteSpec.to_dict) instead",
    )
    parser.add_argument("--seed", type=int, default=None, help="suite master seed")
    parser.add_argument("--count", type=int, default=None, help="number of scenarios")
    parser.add_argument(
        "--repetitions", type=int, default=None, help="repetitions per scenario"
    )
    parser.add_argument(
        "--shards", type=int, required=True,
        help="number of shards to split the campaign into (clamped to the scenario count)",
    )
    parser.add_argument(
        "--systems", default="mls-v1,mls-v2,mls-v3",
        help="comma-separated system presets (default: all three generations)",
    )
    parser.add_argument(
        "--platform", default="desktop", choices=sorted(PLATFORM_FACTORIES),
        help="execution platform key (default: desktop)",
    )
    parser.add_argument(
        "--faults", default=None,
        help="fault axis: a preset name or fault-plan JSON file "
        "(see python -m repro.faults list); overrides any --spec fault axis",
    )


def _plan(args: argparse.Namespace, directory: Path):
    from repro.faults.spec import resolve_faults
    from repro.scenarios import resolve_suite_args

    suite, faults = resolve_suite_args(args)
    if args.faults is not None:
        faults = resolve_faults(args.faults)
    return plan_dispatch(
        directory,
        suite,
        _systems(args.systems),
        shards=args.shards,
        repetitions=args.repetitions,
        platform=args.platform,
        faults=faults,
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = _plan(args, Path(args.dir))
    print(
        f"planned {plan.name!r}: {plan.suite_count} scenarios x "
        f"{plan.repetitions} repetition(s) x {len(plan.systems)} system(s) "
        f"= {plan.total_runs} runs over {len(plan.shards)} shard(s)"
    )
    if plan.faults:
        print(
            f"fault axis: {len(plan.faults)} spec(s): "
            + ", ".join(spec.name for spec in plan.faults)
        )
    for shard in plan.shards:
        print(
            f"  {shard.name}: scenarios [{shard.start}, {shard.stop}) "
            f"({plan.runs_per_shard(shard)} runs)  {shard.fingerprint}"
        )
    print(f"plan fingerprint {plan.fingerprint}; workers: "
          f"python -m repro.dispatch work {args.dir}")
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    report = run_worker(
        args.dir,
        worker_id=args.worker_id,
        lease_seconds=args.lease,
        poll_seconds=args.poll,
        max_shards=args.max_shards,
        wait=not args.no_wait,
        progress=print if args.verbose else None,
    )
    print(
        f"worker {report.worker_id}: completed {len(report.shards_completed)} "
        f"shard(s) ({report.records_flown} records)"
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.bench.tables import format_table

    queue = ShardQueue(args.dir)
    if args.json:
        import json

        print(json.dumps(queue.status_payload(), indent=2, sort_keys=True))
        return 0
    plan = queue.plan
    rows = []
    done = 0
    for status in queue.status():
        shard = status.shard
        done += status.state.value == "done"
        # Lease age against its limit ("12s/60s"), so a wedged worker is
        # visible at a glance; "(stale!)" once the heartbeat has expired.
        if status.heartbeat_age is None:
            age = "-"
        else:
            age = f"{status.heartbeat_age:.0f}s"
            if status.lease_seconds is not None:
                age += f"/{status.lease_seconds:.0f}s"
            if status.stale:
                age += " (stale!)"
        rows.append(
            [
                shard.name,
                f"[{shard.start}, {shard.stop})",
                plan.runs_per_shard(shard),
                status.state.value,
                status.worker or "-",
                age,
                status.records if status.records is not None else "-",
            ]
        )
    print(
        f"{plan.name!r}: {plan.total_runs} runs over {len(plan.shards)} "
        f"shard(s), {done} done"
    )
    print(
        format_table(
            ["Shard", "Scenarios", "Runs", "State", "Worker", "Heartbeat", "Records"],
            rows,
        )
    )
    return 0


def _print_results(directory: Path) -> None:
    from repro.bench.tables import render_outcome_rates

    print(render_outcome_rates(load_merged(directory)))


def _cmd_merge(args: argparse.Namespace) -> int:
    merged = merge_dispatch(args.dir, out_dir=args.out)
    for name, path in merged.items():
        print(f"merged {name}: {path}")
    if args.out is None:
        _print_results(Path(args.dir))
        print(f"analyze with: python -m repro.analysis summarize {args.dir}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    plan = _plan(args, directory)
    print(
        f"dispatching {plan.total_runs} runs over {len(plan.shards)} shard(s) "
        f"to {args.workers} local worker(s)"
    )
    run_local_workers(directory, workers=args.workers, lease_seconds=args.lease)
    merge_dispatch(directory)
    print(f"merged results under {merged_dir(directory)}")
    _print_results(directory)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dispatch",
        description="Sharded campaign execution across processes and machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="split a campaign into shard manifests")
    plan.add_argument("dir", help="dispatch directory (created if missing)")
    _add_plan_args(plan)

    work = sub.add_parser("work", help="run one worker against a dispatch directory")
    work.add_argument("dir", help="a planned dispatch directory")
    work.add_argument("--worker-id", default=None, help="override the generated worker id")
    work.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_SECONDS,
        help="seconds without a heartbeat before other workers may re-claim "
        "this worker's shard (default: %(default)s)",
    )
    work.add_argument(
        "--poll", type=float, default=DEFAULT_POLL_SECONDS,
        help="re-poll interval while other workers hold every shard",
    )
    work.add_argument(
        "--max-shards", type=int, default=None, help="stop after this many shards"
    )
    work.add_argument(
        "--no-wait", action="store_true",
        help="exit when nothing is claimable instead of polling until the plan finishes",
    )
    work.add_argument("--verbose", action="store_true", help="print per-run progress")

    status = sub.add_parser("status", help="per-shard queue state")
    status.add_argument("dir", help="a planned dispatch directory")
    status.add_argument(
        "--json", action="store_true",
        help="machine-readable output (one JSON object; scripts and the "
        "campaign service consume this)",
    )

    merge = sub.add_parser("merge", help="combine shard outputs into merged/ JSONL")
    merge.add_argument("dir", help="a drained dispatch directory")
    merge.add_argument(
        "--out", default=None,
        help="write merged files here instead of <dir>/merged/",
    )

    run = sub.add_parser("run", help="plan + local workers + merge, in one command")
    run.add_argument("dir", help="dispatch directory (created if missing)")
    _add_plan_args(run)
    run.add_argument(
        "--workers", type=int, default=2, help="local worker processes (default: 2)"
    )
    run.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_SECONDS,
        help="worker lease seconds (default: %(default)s)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "work":
            return _cmd_work(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "merge":
            return _cmd_merge(args)
        return _cmd_run(args)
    except (FileNotFoundError, ValueError) as error:
        # Unplanned directories, wrong JSONL kinds, unfinished shards,
        # tampered fingerprints: known user-facing failures get a diagnostic
        # and exit 2, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
