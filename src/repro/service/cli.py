"""Campaign platform service CLI: ``python -m repro.service``.

Subcommands:

* ``serve`` — run the platform server over a service root directory.
* ``submit`` — submit a campaign (suite preset or SuiteSpec file, optional
  fault plan) to a running server; ``--wait`` polls it to completion.
* ``status`` — list jobs, or show one job's full queue state.
* ``fetch`` — download a job's report / coverage / slice markdown, or a
  page of its merged run records.
* ``cancel`` — cancel a job (running workers release their shards).

Example — a smoke campaign end to end::

    terminal-a$ python -m repro.service serve runs/service --workers 2
    terminal-b$ python -m repro.service submit http://127.0.0.1:8035 \\
                    --preset smoke --systems mls-v1,mls-v3 --faults gps-dropout \\
                    --wait
    terminal-b$ python -m repro.service fetch http://127.0.0.1:8035 <job-id> \\
                    --out report.md

The client side speaks plain ``urllib``; fault-plan *files* are resolved
into inline specs locally before submission (the server accepts presets and
inline specs only, never server-side paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.jsonl import write_or_print
from repro.service.client import ServiceClient, ServiceClientError


def _build_submission(args: argparse.Namespace) -> dict[str, Any]:
    submission: dict[str, Any] = {}
    if args.spec:
        from repro.world.spec_validation import load_suite_spec

        submission["spec"] = load_suite_spec(args.spec).to_dict()
    else:
        submission["preset"] = args.preset
    if args.systems:
        submission["systems"] = [
            name.strip() for name in args.systems.split(",") if name.strip()
        ]
    for key in ("count", "seed", "repetitions", "shards"):
        value = getattr(args, key)
        if value is not None:
            submission[key] = value
    if args.platform:
        submission["platform"] = args.platform
    if args.faults:
        from repro.faults.spec import FAULT_PRESETS, resolve_faults

        if args.faults.strip().lower() in FAULT_PRESETS:
            submission["faults"] = args.faults.strip().lower()
        else:
            # A local fault-plan file: resolve it here, ship inline specs.
            submission["faults"] = [
                spec.to_dict() for spec in resolve_faults(args.faults)
            ]
    return submission


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    serve(
        args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        lease_seconds=args.lease,
        quiet=args.quiet,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    response = client.submit(_build_submission(args))
    job_id = response["id"]
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    else:
        verb = "created" if response["created"] else "already exists (dedup)"
        queue = response["status"]["queue"]
        print(f"job {job_id} {verb}: {queue['total_runs']} runs over "
              f"{len(queue['shards'])} shard(s)")
    if args.wait:
        status = client.wait(job_id, timeout=args.timeout)
        if not args.json:
            print(f"job {job_id} {status['state']}")
        if status["state"] != "done":
            return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.job:
        print(json.dumps(client.status(args.job), indent=2, sort_keys=True))
        return 0
    jobs = client.jobs()
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(f"{job['id']}  #{job['sequence']:<3d} {job['state']:<9s} "
              f"{job['runs_done']}/{job['total_runs']} runs  {job['name']}")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.records:
        page = client.records(
            args.job, offset=args.offset, limit=args.limit, system=args.system
        )
        text = json.dumps(page, indent=2, sort_keys=True) + "\n"
        headers: dict[str, str] = {}
    elif args.coverage:
        text, headers = client.coverage(args.job)
    elif args.by:
        text, headers = client.slice(args.job, args.by)
    else:
        text, headers = client.report(args.job)
    write_or_print(text, args.out)
    cache = headers.get("X-Report-Cache")
    if cache:
        print(f"report cache {cache} (key {headers.get('X-Report-Key')})",
              file=sys.stderr)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    print(json.dumps(ServiceClient(args.url).cancel(args.job), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Campaign platform service: HTTP job server + client.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the platform server")
    serve.add_argument("root", help="service root directory (jobs live here)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8035)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="in-process worker threads draining jobs (default: %(default)s; "
        "0 serves plan/merge/reports only and leaves flying to external "
        "'python -m repro.dispatch work' processes)",
    )
    serve.add_argument(
        "--lease", type=float, default=None,
        help="worker lease seconds (default: the dispatch default)",
    )
    serve.add_argument("--quiet", action="store_true", help="no per-request logging")

    submit = sub.add_parser("submit", help="submit a campaign to a server")
    submit.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8035")
    submit.add_argument("--preset", default="smoke", help="suite preset (default: smoke)")
    submit.add_argument("--spec", default=None, help="SuiteSpec JSON file instead")
    submit.add_argument("--systems", default=None, help="comma-separated system presets")
    submit.add_argument("--count", type=int, default=None, help="scenario count override")
    submit.add_argument("--seed", type=int, default=None, help="suite seed override")
    submit.add_argument("--repetitions", type=int, default=None)
    submit.add_argument("--shards", type=int, default=None, help="shard count (default: 2)")
    submit.add_argument("--platform", default=None, help="execution platform key")
    submit.add_argument(
        "--faults", default=None,
        help="fault axis: preset name or local fault-plan JSON file "
             "(files are resolved client-side)",
    )
    submit.add_argument("--wait", action="store_true", help="poll until the job finishes")
    submit.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout seconds"
    )
    submit.add_argument("--json", action="store_true", help="print the raw response")

    status = sub.add_parser("status", help="list jobs / show one job")
    status.add_argument("url")
    status.add_argument("job", nargs="?", default=None, help="job id (omit to list)")
    status.add_argument("--json", action="store_true", help="machine-readable listing")

    fetch = sub.add_parser("fetch", help="download a job's report or records")
    fetch.add_argument("url")
    fetch.add_argument("job", help="job id")
    fetch.add_argument("--by", default=None, help="fetch the slice report for this factor")
    fetch.add_argument("--coverage", action="store_true", help="fetch the coverage report")
    fetch.add_argument("--records", action="store_true", help="fetch merged run records")
    fetch.add_argument("--offset", type=int, default=0, help="records page offset")
    fetch.add_argument("--limit", type=int, default=None, help="records page size")
    fetch.add_argument("--system", default=None, help="restrict records to one system")
    fetch.add_argument("--out", default=None, help="write to this file instead of stdout")

    cancel = sub.add_parser("cancel", help="cancel a job")
    cancel.add_argument("url")
    cancel.add_argument("job", help="job id")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "cancel": _cmd_cancel,
    }
    try:
        return commands[args.command](args)
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, TimeoutError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
