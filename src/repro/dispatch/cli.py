"""Distributed dispatch CLI: ``python -m repro.dispatch``.

Subcommands:

* ``plan`` — split a campaign (suite x systems x repetitions) into
  content-fingerprinted shard manifests under a dispatch directory.
* ``work`` — run one worker against a dispatch directory: claim shards,
  fly them, heartbeat, publish completion.  Start as many as you like, on
  as many machines as share the directory; ``--trace DIR`` writes every
  run's flight-trace summary there.
* ``status`` — per-shard queue state (pending / running / stale / done).
* ``merge`` — combine the per-shard outputs into ``<dir>/merged/``,
  byte-identical to a single-process run of the same campaign.

Plan, local workers and merge in one command is a campaign flight, so it is
``python -m repro.scenarios run --dispatch DIR --shards N --workers W``.
``plan`` takes that command's suite and campaign flags.

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
from typing import Sequence

from repro.core.config import preset
from repro.dispatch.merge import load_merged, merge_dispatch
from repro.dispatch.planner import plan_dispatch
from repro.dispatch.queue import DEFAULT_LEASE_SECONDS, ShardQueue
from repro.dispatch.worker import DEFAULT_POLL_SECONDS, run_worker
from repro.scenarios import add_campaign_args, add_suite_args, resolve_campaign_args


def _cmd_plan(args: argparse.Namespace) -> int:
    suite, systems, faults = resolve_campaign_args(args)
    plan = plan_dispatch(
        args.dir,
        suite,
        [preset(name) for name in systems],
        shards=args.shards,
        repetitions=args.repetitions,
        platform=args.platform,
        faults=faults,
    )
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
        trace_dir=args.trace,
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


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.bench.tables import render_outcome_rates

    merged = merge_dispatch(args.dir)
    for name, path in merged.items():
        print(f"merged {name}: {path}")
    print(render_outcome_rates(load_merged(args.dir)))
    print(f"analyze with: python -m repro.analysis summarize {args.dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dispatch",
        description="Sharded campaign execution across processes and machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="split a campaign into shard manifests")
    plan.add_argument("dir", help="dispatch directory (created if missing)")
    add_suite_args(plan)
    plan.add_argument(
        "--shards", type=int, required=True,
        help="number of shards to split the campaign into (clamped to the scenario count)",
    )
    add_campaign_args(plan)

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
    work.add_argument(
        "--trace", default=None, metavar="DIR",
        help="write every run's flight-trace summary (with job and shard ids) under DIR",
    )

    status = sub.add_parser("status", help="per-shard queue state")
    status.add_argument("dir", help="a planned dispatch directory")
    status.add_argument(
        "--json", action="store_true",
        help="machine-readable output (one JSON object; scripts and the "
        "campaign service consume this)",
    )

    merge = sub.add_parser("merge", help="combine shard outputs into merged/ JSONL")
    merge.add_argument("dir", help="a drained dispatch directory")
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
        return _cmd_merge(args)
    except (FileNotFoundError, ValueError) as error:
        # Unplanned directories, wrong JSONL kinds, unfinished shards,
        # tampered fingerprints: known user-facing failures get a diagnostic
        # and exit 2, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
