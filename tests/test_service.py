"""Tests for the campaign platform service (repro.service).

Mission execution is stubbed (the test_dispatch idiom) so the HTTP, job
store, pool and memo machinery run fast and deterministically; the CI
``service-smoke`` job covers the real-execution path end to end.
"""

import json
import threading
import time

import pytest

import repro.bench.campaign as campaign_module
from repro.analysis.cli import main as analysis_main
from repro.bench.campaign import Campaign
from repro.core.config import mls_v1, mls_v2
from repro.core.metrics import DetectionStats, RunOutcome, RunRecord
from repro.dispatch.queue import ShardState
from repro.dispatch.worker import run_worker
from repro.faults.spec import FAULT_PRESETS
from repro.service.cli import main as service_main
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import JobStore, validate_submission
from repro.service.server import CampaignServer
from repro.world.scenario_gen import generate_suite
from repro.world.spec_validation import SpecValidationError


def make_record(scenario_id, repetition, system="MLS-V1"):
    return RunRecord(
        scenario_id=scenario_id,
        system_name=system,
        outcome=RunOutcome.SUCCESS,
        landing_error=0.4,
        landed=True,
        mission_time=42.0,
        detection=DetectionStats(frames_with_visible_marker=10, frames_detected=9),
        repetition=repetition,
    )


@pytest.fixture
def stub_execute(monkeypatch):
    """Replace mission execution with a deterministic record factory."""
    calls = []

    def fake_execute(job):
        calls.append((job.system.name, job.scenario.scenario_id, job.repetition))
        return make_record(job.scenario.scenario_id, job.repetition, job.system.name)

    monkeypatch.setattr(campaign_module, "_execute_job", fake_execute)
    monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)
    return calls


@pytest.fixture
def server_factory(tmp_path):
    """Start (and always tear down) CampaignServers on ephemeral ports."""
    servers = []

    def make(root=None, workers=2, lease_seconds=5.0, start_pool=True):
        server = CampaignServer(
            str(root if root is not None else tmp_path / "root"),
            ("127.0.0.1", 0),
            workers=workers,
            lease_seconds=lease_seconds,
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        if start_pool:
            server.start_pool()
        servers.append(server)
        return server, ServiceClient(server.url)

    yield make
    for server in servers:
        server.shutdown()  # stops the pool too
        server.server_close()


SUBMISSION = {
    "preset": "smoke", "count": 4, "seed": 3,
    "systems": ["mls-v1"], "shards": 2, "repetitions": 1,
}


class TestSubmissionValidation:
    def test_all_problems_reported_at_once(self):
        with pytest.raises(SpecValidationError) as excinfo:
            validate_submission(
                {"preset": "nope", "shards": 0, "bogus": 1, "systems": ["bad"]}
            )
        fields = {issue.field for issue in excinfo.value.issues}
        assert {"preset", "shards", "bogus", "systems[0]"} <= fields
        payload = excinfo.value.to_payload()
        assert payload["error"] == "invalid submission"
        assert all({"field", "reason"} <= set(i) for i in payload["issues"])

    def test_server_side_fault_paths_refused(self):
        with pytest.raises(SpecValidationError, match="file paths are not accepted"):
            validate_submission({**SUBMISSION, "faults": "plans/evil.json"})

    def test_spec_and_preset_are_exclusive(self):
        with pytest.raises(SpecValidationError, match="exactly one"):
            validate_submission({"preset": "smoke", "spec": {"count": 1}})

    def test_spec_with_faults_is_refused(self):
        # The fault axis is the submission's "faults", never the spec's.
        with pytest.raises(SpecValidationError) as excinfo:
            validate_submission({"spec": {"count": 1, "faults": "smoke"}})
        assert [issue.field for issue in excinfo.value.issues] == ["spec.faults"]

    def test_inline_suite_submission_is_refused(self, server_factory, stub_execute):
        # A job's suite is a preset or a SuiteSpec, never inline scenarios.
        suite = generate_suite("smoke", count=2, seed=3)
        _, client = server_factory(start_pool=False)
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({
                "suite": {"scenarios": [s.to_dict() for s in suite.scenarios]},
                "systems": ["mls-v1"],
            })
        assert excinfo.value.status == 400
        assert [issue["field"] for issue in excinfo.value.payload["issues"]] == ["suite"]
        assert not stub_execute

    def test_inline_spec_issues_are_prefixed(self):
        with pytest.raises(SpecValidationError) as excinfo:
            validate_submission({"spec": {"count": 0, "wrong": 1}})
        fields = {issue.field for issue in excinfo.value.issues}
        assert "spec.count" in fields
        assert "spec.wrong" in fields

    def test_http_submit_maps_to_structured_400(self, server_factory, stub_execute):
        _, client = server_factory(start_pool=False)
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"preset": "nope"})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["issues"][0]["field"] == "preset"


class TestSubmitDedup:
    def test_identical_resubmit_returns_existing_job(self, server_factory, stub_execute):
        _, client = server_factory(start_pool=False)
        first = client.submit(SUBMISSION)
        second = client.submit(dict(SUBMISSION))
        assert first["created"] is True
        assert second["created"] is False
        assert second["id"] == first["id"]

    def test_concurrent_identical_submits_create_one_job(
        self, server_factory, stub_execute
    ):
        server, client = server_factory(start_pool=False)
        results, errors = [], []

        def submit():
            try:
                results.append(client.submit(SUBMISSION))
            except Exception as error:  # pragma: no cover - diagnostic only
                errors.append(error)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len({response["id"] for response in results}) == 1
        assert sum(response["created"] for response in results) == 1
        assert len(server.store.jobs()) == 1

    def test_concurrent_differing_submits_are_isolated(
        self, server_factory, stub_execute
    ):
        server, client = server_factory(start_pool=False)
        results = []
        lock = threading.Lock()

        def submit(seed):
            response = client.submit({**SUBMISSION, "seed": seed})
            with lock:
                results.append(response)

        threads = [threading.Thread(target=submit, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({response["id"] for response in results}) == 4
        assert all(response["created"] for response in results)
        jobs = server.store.jobs()
        assert len(jobs) == 4
        assert len({job.dispatch_dir for job in jobs}) == 4


class TestEndToEnd:
    def test_service_run_matches_offline_campaign_byte_for_byte(
        self, server_factory, stub_execute, tmp_path
    ):
        _, client = server_factory(workers=2)
        submission = {
            "preset": "smoke", "count": 4, "seed": 3,
            "systems": ["mls-v1", "mls-v2"], "shards": 2, "repetitions": 2,
            "faults": "smoke",
        }
        job_id = client.submit(submission)["id"]
        status = client.wait(job_id, timeout=60)
        assert status["state"] == "done"
        assert status["queue"]["runs_done"] == status["queue"]["total_runs"]

        # The offline path: one process, same suite/systems/faults/seed.
        offline = tmp_path / "offline"
        suite = generate_suite("smoke", count=4, seed=3, repetitions=2)
        (
            Campaign(mls_v1(), mls_v2())
            .suite(suite)
            .repetitions(2)
            .faults(*FAULT_PRESETS["smoke"])
            .out(offline)
            .run()
        )
        text, headers = client.report(job_id)
        assert headers["X-Report-Cache"] == "miss"

        report_path = tmp_path / "offline-report.md"
        assert analysis_main(
            ["summarize", str(offline), "--out", str(report_path)]
        ) == 0
        assert text == report_path.read_text(encoding="utf-8")

        # Second fetch must come from the on-disk memo, byte-identical.
        text2, headers2 = client.report(job_id)
        assert headers2["X-Report-Cache"] == "hit"
        assert headers2["X-Report-Key"] == headers["X-Report-Key"]
        assert text2 == text

    def test_merged_files_identical_to_offline(
        self, server_factory, stub_execute, tmp_path
    ):
        server, client = server_factory(workers=2)
        job_id = client.submit(SUBMISSION)["id"]
        client.wait(job_id, timeout=60)
        job = server.store.get(job_id)
        merged = server.store.ensure_merged(job)

        offline = tmp_path / "offline"
        suite = generate_suite("smoke", count=4, seed=3)
        Campaign(mls_v1()).suite(suite).repetitions(1).out(offline).run()
        for path in sorted(offline.glob("*.jsonl")):
            assert (merged / path.name).read_bytes() == path.read_bytes()

    def test_records_pagination_across_systems(self, server_factory, stub_execute):
        server, client = server_factory(workers=2)
        job_id = client.submit(
            {**SUBMISSION, "systems": ["mls-v1", "mls-v2"]}
        )["id"]
        client.wait(job_id, timeout=60)

        page = client.records(job_id, offset=3, limit=3)
        assert page["total"] == 8
        systems = [record["system_name"] for record in page["records"]]
        assert systems == ["MLS-V1", "MLS-V2", "MLS-V2"]

        everything = client.records(job_id)
        assert len(everything["records"]) == 8  # default limit covers it

        past_end = client.records(job_id, offset=100, limit=5)
        assert past_end["total"] == 8
        assert past_end["records"] == []

        only_v2 = client.records(job_id, system="MLS-V2", limit=100)
        assert only_v2["total"] == 4
        assert all(r["system_name"] == "MLS-V2" for r in only_v2["records"])

        with pytest.raises(ServiceClientError) as excinfo:
            client.records(job_id, system="nope")
        assert excinfo.value.status == 404

    def test_torn_tail_in_merged_file_is_dropped_not_counted(
        self, server_factory, stub_execute
    ):
        server, client = server_factory(workers=2)
        job_id = client.submit(SUBMISSION)["id"]
        client.wait(job_id, timeout=60)
        merged = server.store.ensure_merged(server.store.get(job_id))
        victim = sorted(merged.glob("*.jsonl"))[0]
        with victim.open("a", encoding="utf-8") as handle:
            handle.write('{"scenario_id": "torn", "system_na')
        page = client.records(job_id, limit=100)
        assert page["total"] == 4
        assert all(r["scenario_id"] != "torn" for r in page["records"])

    def test_records_before_completion_conflict(self, server_factory, stub_execute):
        _, client = server_factory(start_pool=False)
        job_id = client.submit(SUBMISSION)["id"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.records(job_id)
        assert excinfo.value.status == 409

    def test_unknown_job_and_route_are_404(self, server_factory, stub_execute):
        _, client = server_factory(start_pool=False)
        for call in (
            lambda: client.status("feedfacefeedface"),
            lambda: client.report("feedfacefeedface"),
            lambda: client._json("GET", "/nope"),
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_bad_slice_factor_is_400(self, server_factory, stub_execute):
        _, client = server_factory(workers=1)
        job_id = client.submit(SUBMISSION)["id"]
        client.wait(job_id, timeout=60)
        with pytest.raises(ServiceClientError) as excinfo:
            client.slice(job_id, "bogus")
        assert excinfo.value.status == 400


class TestCancellation:
    def test_cancel_mid_shard_releases_lease(
        self, server_factory, monkeypatch
    ):
        started = threading.Event()
        release = threading.Event()

        def gated_execute(job):
            started.set()
            release.wait(timeout=30.0)
            return make_record(job.scenario.scenario_id, job.repetition, job.system.name)

        monkeypatch.setattr(campaign_module, "_execute_job", gated_execute)
        monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)

        server, client = server_factory(workers=1, lease_seconds=30.0)
        job_id = client.submit({**SUBMISSION, "shards": 1})["id"]
        assert started.wait(timeout=10.0), "worker never started the shard"
        client.cancel(job_id)
        release.set()  # let the in-flight mission finish; the next raises

        job = server.store.get(job_id)
        queue = job.queue()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            statuses = queue.status()
            if all(status.state is ShardState.PENDING for status in statuses):
                break
            time.sleep(0.05)
        statuses = queue.status()
        # The lease was *released* (not left to go stale), and the shard was
        # never published done.
        assert [status.state for status in statuses] == [ShardState.PENDING]
        assert not queue.lease_path(statuses[0].shard).exists()
        assert client.status(job_id)["state"] == "cancelled"
        # The pool skips cancelled jobs: no worker re-claims it.
        time.sleep(0.5)
        assert [s.state for s in queue.status()] == [ShardState.PENDING]
        assert client.healthz()["pool_running"] is True


class TestRestartAndExternalWorkers:
    def test_restart_resumes_from_directory_tree(
        self, server_factory, stub_execute, tmp_path
    ):
        root = tmp_path / "root"
        store = JobStore(root)
        job, created = store.submit(SUBMISSION)
        assert created
        # A first "server" drains one of the two shards, then dies.
        run_worker(job.dispatch_dir, worker_id="first-life", max_shards=1, wait=False)
        assert not job.queue().all_done()

        server, client = server_factory(root=root, workers=2)
        listed = client.jobs()
        assert [entry["id"] for entry in listed] == [job.id]
        assert listed[0]["sequence"] == job.sequence  # submission order survives
        status = client.wait(job.id, timeout=60)
        assert status["state"] == "done"
        text, _ = client.report(job.id)
        assert text.startswith("# Campaign analytics summary")

    def test_external_dispatch_worker_drains_service_job(
        self, server_factory, stub_execute
    ):
        server, client = server_factory(start_pool=False)
        job_id = client.submit(SUBMISSION)["id"]
        job = server.store.get(job_id)
        # What `python -m repro.dispatch work <dir>` runs, pointed at the
        # job's dispatch directory.
        report = run_worker(job.dispatch_dir, worker_id="external")
        assert report.records_flown == 4
        assert client.status(job_id)["state"] == "done"
        text, headers = client.report(job_id)
        assert headers["X-Report-Cache"] == "miss"
        assert "MLS-V1" in text


class TestServiceCli:
    def test_submit_status_fetch_cancel_roundtrip(
        self, server_factory, stub_execute, tmp_path, capsys
    ):
        server, client = server_factory(workers=2)
        url = server.url
        assert service_main([
            "submit", url, "--preset", "smoke", "--count", "4", "--seed", "3",
            "--systems", "mls-v1", "--shards", "2", "--repetitions", "1",
            "--wait", "--json",
        ]) == 0
        response = json.loads(capsys.readouterr().out)
        job_id = response["id"]

        assert service_main(["status", url, "--json"]) == 0
        jobs = json.loads(capsys.readouterr().out)
        assert [job["id"] for job in jobs] == [job_id]
        assert jobs[0]["state"] == "done"

        out = tmp_path / "fetched.md"
        assert service_main(["fetch", url, job_id, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "report cache miss" in captured.err
        assert out.read_text(encoding="utf-8").startswith(
            "# Campaign analytics summary"
        )

        assert service_main([
            "fetch", url, job_id, "--records", "--offset", "1", "--limit", "2",
        ]) == 0
        page = json.loads(capsys.readouterr().out)
        assert page["total"] == 4
        assert len(page["records"]) == 2

        assert service_main(["cancel", url, job_id]) == 0
        assert json.loads(capsys.readouterr().out)["cancelled"] is True
        assert service_main(["status", url, job_id]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "cancelled"

    def test_client_error_exits_2(self, server_factory, stub_execute, capsys):
        server, _ = server_factory(start_pool=False)
        assert service_main(["submit", server.url, "--preset", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "HTTP 400" in err and "preset" in err


class TestObservabilityEndpoints:
    def test_healthz_reports_pool_thread_liveness(self, server_factory, stub_execute):
        server, client = server_factory(workers=2)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            health = client.healthz()
            pool = health["pool"]
            if all(t["last_progress_age"] is not None for t in pool["threads"]):
                break
            time.sleep(0.05)
        assert health["ok"] is True
        assert health["pool_running"] is True
        assert pool["workers"] == 2
        assert len(pool["threads"]) == 2
        for thread in pool["threads"]:
            assert thread["alive"] is True
            assert thread["last_progress_age"] < 5.0

    def test_healthz_without_pool(self, server_factory, stub_execute):
        _, client = server_factory(start_pool=False)
        health = client.healthz()
        assert health["pool_running"] is False
        assert health["pool"]["threads"] == []

    def test_metrics_endpoint_serves_prometheus_text(
        self, server_factory, stub_execute
    ):
        from repro.obs.metrics import METRICS

        METRICS.reset()
        try:
            server, client = server_factory(workers=1)
            job_id = client.submit(SUBMISSION)["id"]
            client.wait(job_id, timeout=30)
            text, headers = client._text("/metrics")
            assert headers["Content-Type"].startswith("text/plain")
            assert "# TYPE repro_service_jobs gauge" in text
            assert 'repro_service_jobs{state="done"} 1' in text
            assert "# TYPE repro_http_requests_total counter" in text
            # The job id collapses to {id} in route labels.
            assert 'route="/jobs/{id}"' in text
            assert job_id not in text
            assert "# TYPE repro_http_request_seconds histogram" in text
            assert "repro_http_request_seconds_bucket" in text
            assert "repro_service_pool_threads_alive 1" in text
            # Sanity: every non-comment line is `name{labels} value`.
            for line in text.splitlines():
                if line.startswith("#") or not line:
                    continue
                name_part, _, value = line.rpartition(" ")
                assert name_part and (value == "NaN" or float(value) is not None)
            # Scrapes are repeatable (and the scrape itself was counted).  A
            # request is counted after its response is written, so the
            # first scrape may show up one scrape late.
            deadline = time.monotonic() + 5.0
            again, _ = client._text("/metrics")
            while 'route="/metrics"' not in again and time.monotonic() < deadline:
                time.sleep(0.01)
                again, _ = client._text("/metrics")
            assert 'route="/metrics"' in again
        finally:
            METRICS.reset()

    def test_dispatch_worker_metrics_counted(self, server_factory, stub_execute):
        from repro.obs.metrics import METRICS

        METRICS.reset()
        try:
            server, client = server_factory(workers=1)
            job_id = client.submit(SUBMISSION)["id"]
            client.wait(job_id, timeout=30)
            snapshot = METRICS.snapshot()
            assert sum(snapshot["repro_dispatch_shards_completed_total"].values()) == 2
            assert sum(snapshot["repro_dispatch_records_flown_total"].values()) == 4
            claims = snapshot["repro_dispatch_claims_total"]
            assert sum(claims.values()) == 2
        finally:
            METRICS.reset()


class TestFleetMetrics:
    def _foreign_snapshot(self, dispatch_dir, runs, process="exthost-99-zz", seq=1):
        metrics_dir = dispatch_dir / "obs" / "metrics"
        metrics_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "kind": "metrics-snapshot", "schema": 1,
            "process": process, "seq": seq,
            "metrics": {
                "repro_runs_total": {
                    "type": "counter", "help": "Completed runs.",
                    "series": [
                        [[["outcome", "success"], ["system", "EXT"]], runs]
                    ],
                },
            },
        }
        (metrics_dir / "99-zz.json").write_text(json.dumps(payload))

    def test_metrics_merges_external_worker_snapshots(
        self, server_factory, stub_execute
    ):
        from repro.obs.metrics import METRICS

        METRICS.reset()
        try:
            server, client = server_factory(workers=1)
            job_id = client.submit(SUBMISSION)["id"]
            client.wait(job_id, timeout=30)
            (job,) = server.store.jobs()
            self._foreign_snapshot(job.dispatch_dir, 7)
            text, _ = client._text("/metrics")
            # The external process's series joins the same exposition as
            # the in-process pool's own state.
            assert 'repro_runs_total{outcome="success",system="EXT"} 7' in text
            assert 'repro_service_jobs{state="done"} 1' in text
            # A newer flush from the same process supersedes (dedupe by
            # seq), it does not double-count.
            self._foreign_snapshot(job.dispatch_dir, 9, seq=2)
            text, _ = client._text("/metrics")
            assert 'repro_runs_total{outcome="success",system="EXT"} 9' in text
        finally:
            METRICS.reset()

    def test_stale_job_state_labels_are_cleared_each_scrape(
        self, server_factory, stub_execute
    ):
        from repro.obs.metrics import METRICS

        METRICS.reset()
        try:
            _, client = server_factory(start_pool=False)
            # A label value no server code sets any more must not linger
            # from scrape to scrape: the gauge is rebuilt wholesale.
            METRICS.gauge(
                "repro_service_jobs", "Submitted jobs by lifecycle state."
            ).set(5, state="bogus-legacy-state")
            text, _ = client._text("/metrics")
            assert "bogus-legacy-state" not in text
            for state in ("queued", "running", "done", "cancelled"):
                assert f'repro_service_jobs{{state="{state}"}} 0' in text
        finally:
            METRICS.reset()

    def test_workers_zero_serves_while_externals_fly(
        self, server_factory, stub_execute
    ):
        server, client = server_factory(workers=0)
        assert server.pool.health()["threads"] == []
        job_id = client.submit(SUBMISSION)["id"]
        (job,) = server.store.jobs()
        assert server.store.job_state(job) == "queued"
        # An "external" dispatch worker (same protocol, own process in
        # production) drains the job's dispatch directory.
        run_worker(job.dispatch_dir, worker_id="external-w0", wait=False)
        status = client.wait(job_id, timeout=30)
        assert status["state"] == "done"
        text, _ = client.report(job_id)
        assert "runs" in text.lower()

    def test_pool_refuses_negative_workers(self, tmp_path):
        from repro.service.pool import WorkerPool

        with pytest.raises(ValueError, match="non-negative"):
            WorkerPool(JobStore(tmp_path / "r"), workers=-1)
