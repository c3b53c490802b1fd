"""The campaign platform HTTP server (stdlib ``http.server`` only).

Routes (all JSON unless noted)::

    GET  /healthz                      liveness + job counts + pool health
    GET  /metrics                      Prometheus text exposition
    GET  /jobs                         all jobs, submission order
    POST /jobs                         submit a campaign (dedup by content)
    GET  /jobs/{id}                    full queue/shard status
    POST /jobs/{id}/cancel             cancel (workers release mid-shard)
    GET  /jobs/{id}/records?offset=&limit=&system=
                                       paginated merged run records
    GET  /jobs/{id}/report             summary report (markdown, memoized)
    GET  /jobs/{id}/slice/{factor}     factor-sliced report (markdown)
    GET  /jobs/{id}/coverage           fault-injection coverage (markdown)

The server is a :class:`ThreadingHTTPServer`: every request handler runs on
its own thread against the shared :class:`~repro.service.jobs.JobStore`,
whose state is the directory tree — which is why killing the process loses
nothing (see ``jobs.py``).  Report responses carry ``X-Report-Cache:
hit|miss`` and ``X-Report-Key`` headers so clients (and the CI smoke job)
can observe the memo working.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.analysis.memo import cached_report
from repro.analysis.slicing import FACTOR_NAMES
from repro.core.metrics import RESULT_KIND, RESULT_SCHEMA_VERSION
from repro.dispatch.merge import ShardResultError
from repro.jsonl import read_frame_header, read_frame_page
from repro.obs.aggregate import fleet_render
from repro.obs.metrics import METRICS
from repro.world.spec_validation import SpecValidationError

from repro.service.jobs import Job, JobStore, UnknownJobError
from repro.service.pool import WorkerPool

#: Records returned by ``GET .../records`` when no ``limit`` is given.
DEFAULT_PAGE_LIMIT = 100


class ServiceError(Exception):
    """An HTTP-mappable request failure."""

    def __init__(self, status: int, payload: dict[str, Any]) -> None:
        super().__init__(payload.get("error", f"HTTP {status}"))
        self.status = status
        self.payload = payload


def _bad_request(message: str) -> ServiceError:
    return ServiceError(400, {"error": message})


class CampaignServer(ThreadingHTTPServer):
    """The platform server: HTTP front + job store + in-process pool."""

    daemon_threads = True

    def __init__(
        self,
        root: str,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        workers: int = 2,
        lease_seconds: float | None = None,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _Handler)
        self.store = JobStore(root)
        pool_kwargs: dict[str, Any] = {"workers": workers}
        if lease_seconds is not None:
            pool_kwargs["lease_seconds"] = lease_seconds
        if not quiet:
            pool_kwargs["log"] = print
        self.pool = WorkerPool(self.store, **pool_kwargs)
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_pool(self) -> None:
        self.pool.start()

    def shutdown(self) -> None:  # also called by serve() on KeyboardInterrupt
        self.pool.stop()
        super().shutdown()


class _Handler(BaseHTTPRequestHandler):
    server: CampaignServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    #: Status of the last response written, read back by the access log.
    _last_status: int | None = None

    def _send(self, status: int, body: bytes, content_type: str,
              extra_headers: dict[str, str] | None = None) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict[str, Any],
                   extra_headers: dict[str, str] | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json", extra_headers)

    def _send_markdown(self, text: str, extra_headers: dict[str, str]) -> None:
        self._send(200, text.encode("utf-8"), "text/markdown; charset=utf-8",
                   extra_headers)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _bad_request("empty request body; expected JSON")
        try:
            return json.loads(raw)
        except ValueError as error:
            raise _bad_request(f"request body is not valid JSON: {error}") from error

    def _job(self, job_id: str) -> Job:
        try:
            return self.server.store.get(job_id)
        except UnknownJobError:
            raise ServiceError(404, {"error": f"no such job: {job_id}"}) from None

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _route(self, method: str) -> None:
        parts = urlsplit(self.path)
        query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        segments = [segment for segment in parts.path.split("/") if segment]
        started = perf_counter()
        self._last_status = None
        try:
            try:
                handled = self._dispatch(method, segments, query)
            except ServiceError as error:
                self._send_json(error.status, error.payload)
                return
            except SpecValidationError as error:
                self._send_json(400, error.to_payload())
                return
            except ShardResultError as error:
                self._send_json(409, {"error": str(error)})
                return
            except BrokenPipeError:  # client went away mid-response
                return
            except Exception as error:  # noqa: BLE001 - last-resort 500
                self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
                return
            if not handled:
                self._send_json(
                    404, {"error": f"no such route: {method} {parts.path}"}
                )
        finally:
            self._observe_request(method, parts.path, segments, started)

    def _refresh_gauges(self) -> None:
        """Fold scrape-time state (jobs, pool threads) into the registry."""
        store = self.server.store
        counts = {state: 0 for state in ("queued", "running", "done", "cancelled")}
        for job in store.jobs():
            try:
                counts[store.job_state(job)] += 1
            except (OSError, ValueError, KeyError):
                continue  # half-planned or torn directory: not scrapable
        jobs_gauge = METRICS.gauge(
            "repro_service_jobs", "Submitted jobs by lifecycle state."
        )
        # Clear-then-set: the gauge is rebuilt wholesale each scrape, so a
        # label value whose state no longer exists disappears instead of
        # rendering its last count forever.  The four canonical states are
        # always (re)set — to zero when empty — so dashboards keep their
        # series.
        jobs_gauge.clear()
        for state, count in counts.items():
            jobs_gauge.set(count, state=state)
        pool = self.server.pool.health()
        METRICS.gauge(
            "repro_service_pool_threads_alive", "Live worker-pool threads."
        ).set(sum(1 for thread in pool["threads"] if thread["alive"]))
        ages = [
            thread["last_progress_age"]
            for thread in pool["threads"]
            if thread["last_progress_age"] is not None
        ]
        METRICS.gauge(
            "repro_service_pool_max_progress_age_seconds",
            "Seconds since the least recently active pool thread progressed.",
        ).set(max(ages) if ages else 0.0)

    @staticmethod
    def _route_template(segments: list[str]) -> str:
        """The path with the job id collapsed (bounds metric cardinality)."""
        if segments[:1] == ["jobs"] and len(segments) >= 2:
            segments = ["jobs", "{id}", *segments[2:]]
        return "/" + "/".join(segments) if segments else "/"

    def _observe_request(
        self, method: str, path: str, segments: list[str], started: float
    ) -> None:
        """Per-request metrics + one structured access-log line."""
        elapsed = perf_counter() - started
        status = self._last_status if self._last_status is not None else 0
        route = self._route_template(segments)
        METRICS.counter(
            "repro_http_requests_total", "Service requests by route and status."
        ).inc(method=method, route=route, status=str(status))
        METRICS.histogram(
            "repro_http_request_seconds", "Service request latency by route."
        ).observe(elapsed, route=route)
        if self.server.quiet:
            return
        entry: dict[str, Any] = {
            "kind": "access",
            "method": method,
            "path": path,
            "status": status,
            "latency_ms": round(elapsed * 1000.0, 3),
        }
        if segments[:1] == ["jobs"] and len(segments) >= 2:
            entry["job"] = segments[1]  # the job id IS the plan fingerprint
        print(json.dumps(entry, sort_keys=True), file=sys.stderr, flush=True)

    def _dispatch(self, method: str, segments: list[str], query: dict[str, str]) -> bool:
        store = self.server.store
        if method == "GET" and segments == ["healthz"]:
            jobs = store.jobs()
            pool = self.server.pool.health()
            self._send_json(200, {
                "ok": True,
                "jobs": len(jobs),
                "pool_running": pool["running"],
                "pool": pool,
            })
            return True
        if method == "GET" and segments == ["metrics"]:
            self._refresh_gauges()
            # Own-process registry plus every job's flushed worker
            # snapshots, merged deterministically: counters from external
            # ``dispatch work`` processes appear in the same exposition as
            # the in-process pool's (see repro.obs.aggregate).
            body = fleet_render(
                (job.dispatch_dir for job in store.jobs()), registry=METRICS
            ).encode("utf-8")
            self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")
            return True
        if segments[:1] != ["jobs"]:
            return False
        if method == "POST" and len(segments) == 1:
            job, created = store.submit(self._read_body())
            self._send_json(201 if created else 200, {
                "id": job.id,
                "created": created,
                "status": store.status_payload(job),
            })
            return True
        if method == "GET" and len(segments) == 1:
            self._send_json(200, {
                "jobs": [store.summary_payload(job) for job in store.jobs()]
            })
            return True
        if len(segments) < 2:
            return False
        job = self._job(segments[1])
        rest = segments[2:]
        if method == "GET" and not rest:
            self._send_json(200, store.status_payload(job))
            return True
        if method == "POST" and rest == ["cancel"]:
            store.cancel(job.id)
            self._send_json(200, {"id": job.id, "cancelled": True})
            return True
        if method == "GET" and rest == ["records"]:
            self._records(job, query)
            return True
        if method == "GET" and rest == ["report"]:
            self._report(job, "summary", None)
            return True
        if method == "GET" and rest == ["coverage"]:
            self._report(job, "coverage", None)
            return True
        if method == "GET" and len(rest) == 2 and rest[0] == "slice":
            if rest[1] not in FACTOR_NAMES:
                raise _bad_request(
                    f"unknown slice factor {rest[1]!r}; expected one of "
                    f"{sorted(FACTOR_NAMES)}"
                )
            self._report(job, "slice", rest[1])
            return True
        return False

    # ------------------------------------------------------------------ #
    # results endpoints
    # ------------------------------------------------------------------ #
    def _int_query(self, query: dict[str, str], key: str, default: int | None) -> int | None:
        if key not in query:
            return default
        try:
            value = int(query[key])
        except ValueError:
            raise _bad_request(f"{key} must be an integer, got {query[key]!r}") from None
        if value < 0:
            raise _bad_request(f"{key} must be non-negative, got {value}")
        return value

    def _merged_files(self, job: Job, system: str | None) -> list:
        merged = self.server.store.ensure_merged(job)
        files = sorted(merged.glob("*.jsonl"))
        if system is not None:
            files = [
                path for path in files
                if read_frame_header(path).get("system") == system
            ]
            if not files:
                raise ServiceError(
                    404, {"error": f"job {job.id} has no merged results for "
                                   f"system {system!r}"}
                )
        return files

    def _records(self, job: Job, query: dict[str, str]) -> None:
        offset = self._int_query(query, "offset", 0)
        limit = self._int_query(query, "limit", DEFAULT_PAGE_LIMIT)
        files = self._merged_files(job, query.get("system"))
        records: list[dict[str, Any]] = []
        total = 0
        for path in files:
            # Page across the per-system files as one concatenated stream:
            # each file reports its own total; the window slides along.
            remaining = None if limit is None else limit - len(records)
            _, page, file_total = read_frame_page(
                path,
                RESULT_KIND,
                RESULT_SCHEMA_VERSION,
                json.loads,
                offset=max(0, offset - total),
                limit=0 if remaining is not None and remaining <= 0 else remaining,
                description="run record",
            )
            records.extend(page)
            total += file_total
        self._send_json(200, {
            "id": job.id,
            "offset": offset,
            "limit": limit,
            "total": total,
            "records": records,
        })

    def _report(self, job: Job, kind: str, factor: str | None) -> None:
        self.server.store.ensure_merged(job)
        result = cached_report(job.dispatch_dir, kind=kind, factor=factor)
        self._send_markdown(result.text, {
            "X-Report-Cache": "hit" if result.hit else "miss",
            "X-Report-Key": result.key,
            "X-Report-Records": str(result.records),
        })

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")


def serve(
    root: str,
    host: str = "127.0.0.1",
    port: int = 8035,
    *,
    workers: int = 2,
    lease_seconds: float | None = None,
    quiet: bool = False,
) -> None:
    """Run the platform server until interrupted (the ``serve`` subcommand)."""
    server = CampaignServer(
        root, (host, port), workers=workers, lease_seconds=lease_seconds, quiet=quiet,
    )
    server.start_pool()
    print(f"campaign service on {server.url} (root {root}, {workers} worker(s))")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.pool.stop()
        server.server_close()
