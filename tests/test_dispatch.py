"""Tests for the distributed dispatch subsystem (repro.dispatch).

Mission execution is stubbed (same pattern as test_campaign_persistence) so
the queue/lease/merge machinery is exercised quickly and deterministically;
the CI ``dispatch-smoke`` job covers the real multi-process path.
"""

import json
import threading
import time

import pytest

import repro.bench.campaign as campaign_module
from repro.analysis.engine import CampaignAnalysis
from repro.bench.campaign import Campaign
from repro.core.config import mls_v1, mls_v2
from repro.core.metrics import CampaignResult, DetectionStats, RunOutcome, RunRecord
from repro.dispatch.cli import main as dispatch_main
from repro.dispatch.merge import (
    ShardResultError,
    ensure_merged,
    load_merged,
    merge_dispatch,
)
from repro.dispatch.planner import (
    load_plan,
    load_suite,
    plan_dispatch,
    shard_results_dir,
    suite_fingerprint,
)
from repro.dispatch.queue import LeaseLostError, ShardQueue, ShardState
from repro.dispatch.worker import _Heartbeat, _shard_campaign, run_worker
from repro.world.scenario_gen import generate_suite


def make_record(scenario_id, repetition, system="MLS-V1", outcome=RunOutcome.SUCCESS):
    """A deterministic fake mission result for (scenario, repetition, system)."""
    return RunRecord(
        scenario_id=scenario_id,
        system_name=system,
        outcome=outcome,
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
def suite():
    return generate_suite("smoke", count=4, seed=3)


def plan_smoke(tmp_path, suite, shards=2, systems=None, repetitions=1):
    return plan_dispatch(
        tmp_path / "dispatch",
        suite,
        systems or [mls_v1()],
        shards=shards,
        repetitions=repetitions,
    )


class TestPlanner:
    def test_balanced_contiguous_partition(self, tmp_path, suite):
        plan = plan_smoke(tmp_path, suite, shards=3)
        assert [(s.start, s.stop) for s in plan.shards] == [(0, 2), (2, 3), (3, 4)]
        assert [s.index for s in plan.shards] == [0, 1, 2]
        ids = [sid for shard in plan.shards for sid in shard.scenario_ids]
        assert ids == [s.scenario_id for s in suite]

    def test_shard_count_clamped_to_suite(self, tmp_path, suite):
        plan = plan_smoke(tmp_path, suite, shards=99)
        assert len(plan.shards) == 4

    def test_replan_is_idempotent(self, tmp_path, suite):
        first = plan_smoke(tmp_path, suite)
        again = plan_smoke(tmp_path, suite)
        assert again.fingerprint == first.fingerprint
        assert [s.fingerprint for s in again.shards] == [
            s.fingerprint for s in first.shards
        ]

    def test_different_plan_refused(self, tmp_path, suite):
        plan_smoke(tmp_path, suite, shards=2)
        with pytest.raises(ValueError, match="different dispatch plan"):
            plan_smoke(tmp_path, suite, shards=3)
        with pytest.raises(ValueError, match="different dispatch plan"):
            plan_smoke(tmp_path, suite, shards=2, systems=[mls_v2()])

    def test_plan_round_trips_through_disk(self, tmp_path, suite):
        plan = plan_smoke(tmp_path, suite, shards=2, systems=[mls_v1(), mls_v2()])
        loaded = load_plan(tmp_path / "dispatch")
        assert loaded.fingerprint == plan.fingerprint
        assert [s.name for s in loaded.systems] == ["MLS-V1", "MLS-V2"]
        assert loaded.mission == plan.mission
        assert loaded.context == plan.context
        reloaded_suite = load_suite(tmp_path / "dispatch", loaded)
        assert [s.scenario_id for s in reloaded_suite] == [
            s.scenario_id for s in suite
        ]

    def test_edited_plan_refused_on_load(self, tmp_path, suite):
        # Editing plan.json without updating its stored fingerprint must be
        # refused — workers must never silently fly an altered campaign.
        plan_smoke(tmp_path, suite)
        path = tmp_path / "dispatch" / "plan.json"
        planned = path.read_text()
        data = json.loads(planned)
        data["repetitions"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="edited or corrupted"):
            load_plan(tmp_path / "dispatch")
        # A plan written while MissionConfig still had a ``fast_path`` field
        # is refused cleanly rather than crashing a worker.
        data = json.loads(planned)
        data["mission"]["fast_path"] = True
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="malformed dispatch plan"):
            load_plan(tmp_path / "dispatch")

    def test_tampered_suite_refused(self, tmp_path, suite):
        plan_smoke(tmp_path, suite)
        other = generate_suite("smoke", count=4, seed=99)
        other.to_jsonl(tmp_path / "dispatch" / "suite.jsonl")
        with pytest.raises(ValueError, match="does not match the plan"):
            load_suite(tmp_path / "dispatch")

    def test_validation_errors(self, tmp_path, suite):
        with pytest.raises(ValueError, match="shards must be positive"):
            plan_dispatch(tmp_path, suite, [mls_v1()], shards=0)
        with pytest.raises(ValueError, match="without systems"):
            plan_dispatch(tmp_path, suite, [], shards=1)
        with pytest.raises(ValueError, match="duplicate system names"):
            plan_dispatch(tmp_path, suite, [mls_v1(), mls_v1()], shards=1)
        with pytest.raises(ValueError, match="unknown platform"):
            plan_dispatch(tmp_path, suite, [mls_v1()], shards=1, platform="cray")

    def test_unplanned_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a dispatch directory"):
            load_plan(tmp_path)


class TestShardQueue:
    def test_claims_are_exclusive_and_ordered(self, tmp_path, suite):
        plan_smoke(tmp_path, suite, shards=2)
        queue = ShardQueue(tmp_path / "dispatch")
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first.shard.index == 0
        assert second.shard.index == 1
        assert queue.claim("w3") is None  # both held, none stale
        states = [s.state for s in queue.status()]
        assert states == [ShardState.RUNNING, ShardState.RUNNING]

    def test_release_makes_shard_claimable_again(self, tmp_path, suite):
        plan_smoke(tmp_path, suite, shards=2)
        queue = ShardQueue(tmp_path / "dispatch")
        lease = queue.claim("w1")
        lease.release()
        again = queue.claim("w2")
        assert again.shard.index == 0

    def test_done_shards_are_never_reclaimed(self, tmp_path, suite):
        plan_smoke(tmp_path, suite, shards=2)
        queue = ShardQueue(tmp_path / "dispatch")
        lease = queue.claim("w1")
        lease.mark_done({"MLS-V1": 2})
        nxt = queue.claim("w1")
        assert nxt.shard.index == 1
        nxt.mark_done({"MLS-V1": 2})
        assert queue.claim("w1") is None
        assert queue.all_done()
        assert [s.state for s in queue.status()] == [ShardState.DONE, ShardState.DONE]
        assert [s.records for s in queue.status()] == [2, 2]

    def test_stale_lease_is_evicted_exactly_like_a_crash(self, tmp_path, suite):
        plan_smoke(tmp_path, suite, shards=1)
        queue = ShardQueue(tmp_path / "dispatch")
        dead = queue.claim("dead-worker", lease_seconds=0.1)
        time.sleep(0.15)
        assert queue.status()[0].state == ShardState.STALE
        stolen = queue.claim("rescuer", lease_seconds=30.0)
        assert stolen is not None
        assert stolen.worker_id == "rescuer"
        # The dead worker's lease object is now invalid.
        with pytest.raises(LeaseLostError):
            dead.heartbeat()

    def test_heartbeat_keeps_a_slow_shard_alive(self, tmp_path, suite):
        plan_smoke(tmp_path, suite, shards=1)
        queue = ShardQueue(tmp_path / "dispatch")
        lease = queue.claim("slow", lease_seconds=0.3)
        with _Heartbeat(lease, interval=0.05):
            time.sleep(0.45)  # well past the lease without heartbeats
            assert queue.claim("thief", lease_seconds=0.3) is None
            assert queue.status()[0].state == ShardState.RUNNING

    def test_torn_lease_file_expires_via_mtime(self, tmp_path, suite):
        import os

        plan_smoke(tmp_path, suite, shards=1)
        queue = ShardQueue(tmp_path / "dispatch")
        path = queue.lease_path(queue.plan.shards[0])
        path.write_text('{"worker": "torn')  # writer died mid-write
        old = time.time() - 3600.0
        os.utime(path, (old, old))
        lease = queue.claim("rescuer", lease_seconds=30.0)
        assert lease is not None

    def test_release_after_eviction_leaves_new_owner_lease(self, tmp_path, suite):
        # A worker that stalls past its lease and then errors out must not
        # unlink the lease the rescuing worker now holds.
        plan_smoke(tmp_path, suite, shards=1)
        queue = ShardQueue(tmp_path / "dispatch")
        stalled = queue.claim("stalled", lease_seconds=0.1)
        time.sleep(0.15)
        rescuer = queue.claim("rescuer", lease_seconds=30.0)
        assert rescuer is not None
        stalled.release()  # token-guarded: must be a no-op
        status = queue.status()[0]
        assert status.state == ShardState.RUNNING
        assert status.worker == "rescuer"
        assert queue.claim("thief", lease_seconds=30.0) is None
        rescuer.heartbeat()  # still the owner

    def test_eviction_verifies_lease_identity(self, tmp_path, suite, monkeypatch):
        # A contender acting on an outdated staleness observation (the lease
        # it saw stale has since been replaced by a fresh one) must restore
        # the fresh lease instead of stealing it.
        plan_smoke(tmp_path, suite, shards=1)
        queue = ShardQueue(tmp_path / "dispatch")
        owner = queue.claim("owner", lease_seconds=30.0)
        assert owner is not None
        outdated = (
            {"token": "long-gone", "heartbeat_at": time.time() - 3600, "lease_seconds": 0.1},
            time.time() - 3600,
        )
        monkeypatch.setattr(ShardQueue, "_lease_heartbeat", lambda self, shard: outdated)
        assert queue.claim("thief", lease_seconds=30.0) is None
        monkeypatch.undo()
        owner.heartbeat()  # the fresh lease survived the attempted eviction
        assert queue.status()[0].worker == "owner"

    def test_done_written_but_lease_leaked(self, tmp_path, suite):
        # A worker can die after publishing done.json but before releasing
        # its lease: the shard must read as done, not claimable.
        plan_smoke(tmp_path, suite, shards=1)
        queue = ShardQueue(tmp_path / "dispatch")
        lease = queue.claim("w1", lease_seconds=0.1)
        queue_done = queue.done_path(lease.shard)
        import os

        tmp = queue_done.with_name("tmp")
        tmp.write_text(
            json.dumps(
                {
                    "kind": "shard-done",
                    "shard": 0,
                    "plan": queue.plan.fingerprint,
                    "worker": "w1",
                    "records": {"MLS-V1": 4},
                }
            )
        )
        os.replace(tmp, queue_done)  # died right here, lease never released
        time.sleep(0.15)
        assert queue.claim("w2") is None
        assert queue.status()[0].state == ShardState.DONE


class TestWorkerAndMerge:
    def _serial_reference(self, tmp_path, suite, systems=None):
        out = tmp_path / "serial"
        (
            Campaign(*(systems or [mls_v1()]))
            .suite(suite)
            .repetitions(1)
            .out(out)
            .run()
        )
        return out

    def test_merged_output_is_byte_identical_to_serial(
        self, tmp_path, suite, stub_execute
    ):
        # The acceptance criterion: fixed seed, sharded multi-worker run,
        # merged bytes == single-process Campaign.run() persistence bytes.
        serial = self._serial_reference(tmp_path, suite, [mls_v1(), mls_v2()])
        plan_smoke(tmp_path, suite, shards=3, systems=[mls_v1(), mls_v2()])
        directory = tmp_path / "dispatch"
        first = run_worker(directory, worker_id="w1", max_shards=1)
        second = run_worker(directory, worker_id="w2", poll_seconds=0.01)
        assert first.shards_completed == [0]
        assert sorted(second.shards_completed) == [1, 2]
        merged = merge_dispatch(directory)
        for name, path in merged.items():
            assert path.read_bytes() == (serial / path.name).read_bytes(), name

    def test_concurrent_merges_agree(self, tmp_path, suite, stub_execute):
        # Two machines running `scenarios run --dispatch DIR`, or the service
        # pool beside an external `dispatch merge`, merge one directory at
        # once: neither may fail, and the merged bytes must not change.
        plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        run_worker(directory, worker_id="w1")
        expected = merge_dispatch(directory)["MLS-V1"].read_bytes()
        errors = []

        def merge(barrier):
            barrier.wait()
            try:
                merge_dispatch(directory)
            except Exception as error:
                errors.append(error)

        for _ in range(50):
            barrier = threading.Barrier(2)
            threads = [threading.Thread(target=merge, args=(barrier,)) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            merged = directory / "merged"
            assert [path.name for path in merged.iterdir()] == ["MLS-V1.jsonl"]
            assert (merged / "MLS-V1.jsonl").read_bytes() == expected

    def test_load_merged_matches_run_results(self, tmp_path, suite, stub_execute):
        plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        run_worker(directory, worker_id="w1")
        merge_dispatch(directory)
        results = load_merged(directory)
        assert set(results) == {"MLS-V1"}
        assert len(results["MLS-V1"]) == 4
        assert isinstance(results["MLS-V1"], CampaignResult)

    def test_ensure_merged_merges_only_an_incomplete_merge(
        self, tmp_path, suite, stub_execute, monkeypatch
    ):
        plan_smoke(tmp_path, suite, shards=2, systems=[mls_v1(), mls_v2()])
        directory = tmp_path / "dispatch"
        with pytest.raises(ShardResultError, match="not done yet"):
            ensure_merged(directory)
        run_worker(directory, worker_id="w1")
        merges = []
        monkeypatch.setattr(
            "repro.dispatch.merge.merge_dispatch",
            lambda d: merges.append(d) or merge_dispatch(d),
        )
        out = ensure_merged(directory)
        assert sorted(path.name for path in out.iterdir()) == ["MLS-V1.jsonl", "MLS-V2.jsonl"]
        ensure_merged(directory)
        assert len(merges) == 1
        (out / "MLS-V2.jsonl").unlink()  # one system missing: merge again
        ensure_merged(directory)
        assert len(merges) == 2 and (out / "MLS-V2.jsonl").exists()

    def test_crashed_worker_resumes_via_lease_expiry(
        self, tmp_path, suite, stub_execute, monkeypatch
    ):
        # Worker w1 dies mid-shard (after persisting one record, lease never
        # released).  Once the lease expires, w2 re-claims, resumes from the
        # persisted record, and the merged result equals an uninterrupted run.
        serial = self._serial_reference(tmp_path, suite)
        plan = plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        queue = ShardQueue(directory)
        lease = queue.claim("w1", lease_seconds=0.2)
        assert lease.shard.index == 0

        class WorkerDied(RuntimeError):
            pass

        real_execute = campaign_module._execute_job
        crash_after = {"remaining": 1}

        def dying_execute(job):
            if crash_after["remaining"] <= 0:
                raise WorkerDied("SIGKILL")
            crash_after["remaining"] -= 1
            return real_execute(job)

        monkeypatch.setattr(campaign_module, "_execute_job", dying_execute)
        campaign = _shard_campaign(
            plan, suite, lease.shard, lease.results_dir, None
        )
        with pytest.raises(WorkerDied):
            campaign.run()
        # Crash: no release, no done marker; exactly one record persisted.
        monkeypatch.setattr(campaign_module, "_execute_job", real_execute)
        persisted = CampaignResult.from_jsonl(
            shard_results_dir(directory, lease.shard) / "MLS-V1.jsonl"
        )
        assert len(persisted) == 1
        assert not queue.all_done()

        stub_execute.clear()
        time.sleep(0.25)  # let the dead worker's lease expire
        report = run_worker(directory, worker_id="w2", poll_seconds=0.01)
        assert sorted(report.shards_completed) == [0, 1]
        # The persisted record was restored, not re-flown: 4 cells total,
        # 1 survived the crash, so w2 executed exactly 3.
        assert len(stub_execute) == 3

        merged = merge_dispatch(directory)
        assert merged["MLS-V1"].read_bytes() == (serial / "MLS-V1.jsonl").read_bytes()

    def test_idle_worker_returns_soon_after_the_last_shard_is_done(
        self, tmp_path, suite, monkeypatch
    ):
        # A worker with nothing to claim polls until the plan is done; once a
        # sibling marks the last shard done it must return within one short
        # poll, not after a half-second sleep.
        import threading

        plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        queue = ShardQueue(directory)
        queue.claim("w0").mark_done({"MLS-V1": 2})
        last = queue.claim("w1")
        polling = threading.Event()
        all_done = ShardQueue.all_done

        def spying_all_done(self):
            polling.set()
            return all_done(self)

        monkeypatch.setattr(ShardQueue, "all_done", spying_all_done)
        returned = []
        worker = threading.Thread(
            target=lambda: returned.append((run_worker(directory, worker_id="w2"), time.monotonic()))
        )
        worker.start()
        assert polling.wait(timeout=10.0)
        time.sleep(0.1)
        last.mark_done({"MLS-V1": 2})
        done_at = time.monotonic()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        (report, returned_at), = returned
        assert report.shards_completed == []
        assert returned_at - done_at < 0.2

    def test_worker_abandons_shard_when_lease_is_lost(
        self, tmp_path, suite, stub_execute, monkeypatch
    ):
        # If another worker legitimately takes the shard over mid-flight
        # (this worker stalled past its lease), this worker must neither
        # publish done.json nor count the shard as completed.
        import threading

        import repro.dispatch.worker as worker_module

        plan_smoke(tmp_path, suite, shards=1)
        directory = tmp_path / "dispatch"
        queue = ShardQueue(directory)

        class FakeHeartbeat:
            """No heartbeats while flying; discovers eviction at shard end."""

            def __init__(self, lease, interval):
                self._lease = lease
                self.error = None

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                try:
                    self._lease.heartbeat()
                except LeaseLostError as error:
                    self.error = error

        monkeypatch.setattr(worker_module, "_Heartbeat", FakeHeartbeat)
        real_execute = campaign_module._execute_job
        slow_execute = lambda job: (time.sleep(0.3), real_execute(job))[1]
        monkeypatch.setattr(campaign_module, "_execute_job", slow_execute)

        thief_lease = []
        thief = threading.Timer(
            0.15, lambda: thief_lease.append(queue.claim("thief", lease_seconds=30.0))
        )
        thief.start()
        report = run_worker(
            directory, worker_id="stalled", lease_seconds=0.1, wait=False
        )
        thief.join()
        assert thief_lease and thief_lease[0] is not None  # takeover happened
        assert report.shards_completed == []  # the shard was abandoned
        assert queue.read_done(queue.plan.shards[0]) is None  # no done.json
        status = queue.status()[0]
        assert status.state == ShardState.RUNNING
        assert status.worker == "thief"

    def test_merge_refuses_unfinished_plan(self, tmp_path, suite, stub_execute):
        plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        run_worker(directory, worker_id="w1", max_shards=1)
        with pytest.raises(ShardResultError, match="not done yet"):
            merge_dispatch(directory)

    def test_merge_refuses_tampered_record(self, tmp_path, suite, stub_execute):
        plan = plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        run_worker(directory, worker_id="w1")
        path = shard_results_dir(directory, plan.shards[0]) / "MLS-V1.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["scenario_fingerprint"] = "0" * 16
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ShardResultError, match="different scenario contents"):
            merge_dispatch(directory)

    def test_merge_refuses_missing_record(self, tmp_path, suite, stub_execute):
        plan = plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        run_worker(directory, worker_id="w1")
        path = shard_results_dir(directory, plan.shards[1]) / "MLS-V1.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last record
        with pytest.raises(ShardResultError, match="holds no record"):
            merge_dispatch(directory)

    def test_duplicate_identical_records_collapse(self, tmp_path, suite, stub_execute):
        # A shard flown twice across a lease eviction appends every record
        # twice; identical duplicates merge cleanly.
        plan = plan_smoke(tmp_path, suite, shards=1)
        directory = tmp_path / "dispatch"
        run_worker(directory, worker_id="w1")
        path = shard_results_dir(directory, plan.shards[0]) / "MLS-V1.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines[1:]) + "\n")
        merged = merge_dispatch(directory)
        assert len(CampaignResult.from_jsonl(merged["MLS-V1"])) == 4

    def test_diverging_duplicate_records_refused(self, tmp_path, suite, stub_execute):
        plan = plan_smoke(tmp_path, suite, shards=1)
        directory = tmp_path / "dispatch"
        run_worker(directory, worker_id="w1")
        path = shard_results_dir(directory, plan.shards[0]) / "MLS-V1.jsonl"
        lines = path.read_text().splitlines()
        clone = json.loads(lines[1])
        clone["mission_time"] = 999.0
        path.write_text("\n".join(lines + [json.dumps(clone, sort_keys=True)]) + "\n")
        with pytest.raises(ShardResultError, match="two \\*different\\* records"):
            merge_dispatch(directory)


class TestCampaignDispatchTerminal:
    def test_dispatch_equals_out_run(self, tmp_path, suite, stub_execute):
        serial = (
            Campaign(mls_v1()).suite(suite).repetitions(1).out(tmp_path / "serial").run()
        )
        results = (
            Campaign(mls_v1())
            .suite(suite)
            .repetitions(1)
            .dispatch(tmp_path / "dispatch", shards=2, workers=1)
        )
        as_dicts = lambda result: [r.to_dict() for r in result.records]
        assert as_dicts(results["MLS-V1"]) == as_dicts(serial["MLS-V1"])
        assert (tmp_path / "dispatch" / "merged" / "MLS-V1.jsonl").read_bytes() == (
            tmp_path / "serial" / "MLS-V1.jsonl"
        ).read_bytes()

    def test_redispatch_resumes_from_done_shards(self, tmp_path, suite, stub_execute):
        campaign = lambda: Campaign(mls_v1()).suite(suite).repetitions(1)
        campaign().dispatch(tmp_path / "d", shards=2, workers=1)
        executed_first = len(stub_execute)
        stub_execute.clear()
        again = campaign().dispatch(tmp_path / "d", shards=2, workers=1)
        assert executed_first == 4
        assert stub_execute == []  # every shard already done: nothing re-flown
        assert len(again["MLS-V1"]) == 4


class TestAnalysisDiscovery:
    def test_summarize_finds_merged_results_in_dispatch_dir(
        self, tmp_path, suite, stub_execute
    ):
        Campaign(mls_v1()).suite(suite).repetitions(1).dispatch(
            tmp_path / "dispatch", shards=2, workers=1
        )
        analysis = CampaignAnalysis(str(tmp_path / "dispatch"))
        summaries = analysis.summaries()
        assert set(summaries) == {"MLS-V1"}
        assert summaries["MLS-V1"].runs == 4
        # The suite JSONL at the dispatch root joins automatically, so
        # scenario-factor slicing works on a dispatch directory too.
        assert analysis.slice("stress-axis")


class TestDispatchCli:
    def _plan_args(self, directory):
        return [
            "plan", str(directory),
            "--preset", "smoke", "--count", "4", "--seed", "3",
            "--shards", "3", "--systems", "mls-v1",
        ]

    def test_plan_work_status_merge_round_trip(
        self, tmp_path, suite, stub_execute, capsys
    ):
        directory = tmp_path / "dispatch"
        assert dispatch_main(self._plan_args(directory)) == 0
        assert "3 shard(s)" in capsys.readouterr().out
        assert dispatch_main(["work", str(directory), "--worker-id", "cli-w1"]) == 0
        assert "completed 3 shard(s)" in capsys.readouterr().out
        assert dispatch_main(["status", str(directory)]) == 0
        assert capsys.readouterr().out.count("done") >= 3
        assert dispatch_main(["merge", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "merged MLS-V1" in out
        assert (directory / "merged" / "MLS-V1.jsonl").exists()

    def test_conflicting_replan_exits_2(self, tmp_path, suite, stub_execute, capsys):
        directory = tmp_path / "dispatch"
        assert dispatch_main(self._plan_args(directory)) == 0
        args = self._plan_args(directory)
        args[args.index("--shards") + 1] = "2"
        assert dispatch_main(args) == 2
        assert "different dispatch plan" in capsys.readouterr().err

    def test_merge_out_flag_is_gone(self, tmp_path, capsys):
        # Every reader looks for merged files in <dir>/merged/.
        with pytest.raises(SystemExit) as excinfo:
            dispatch_main(["merge", str(tmp_path), "--out", str(tmp_path / "elsewhere")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err

    def test_merge_before_done_exits_2(self, tmp_path, suite, stub_execute, capsys):
        directory = tmp_path / "dispatch"
        assert dispatch_main(self._plan_args(directory)) == 0
        assert dispatch_main(["merge", str(directory)]) == 2
        assert "not done yet" in capsys.readouterr().err

    def test_status_on_unplanned_directory_exits_2(self, tmp_path, capsys):
        assert dispatch_main(["status", str(tmp_path)]) == 2
        assert "not a dispatch directory" in capsys.readouterr().err

    def test_plan_from_spec_file(self, tmp_path, capsys):
        from repro.world.scenario_gen import SUITE_PRESETS

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SUITE_PRESETS["smoke"].to_dict()))
        assert (
            dispatch_main(
                [
                    "plan", str(tmp_path / "dispatch"),
                    "--spec", str(spec_file), "--count", "4", "--seed", "3",
                    "--shards", "2", "--systems", "mls-v1",
                ]
            )
            == 0
        )
        plan = load_plan(tmp_path / "dispatch")
        # Identical to planning over the equivalent generated suite.
        expected = generate_suite("smoke", count=4, seed=3)
        assert plan.suite_count == 4
        assert plan.suite_fingerprint == suite_fingerprint(expected)

    def test_status_json_payload(self, tmp_path, suite, stub_execute, capsys):
        directory = tmp_path / "dispatch"
        plan = plan_smoke(tmp_path, suite, shards=2)
        run_worker(directory, worker_id="w0", max_shards=1, wait=False)
        assert dispatch_main(["status", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fingerprint"] == plan.fingerprint
        assert payload["context"] == plan.context
        assert payload["total_runs"] == 4
        assert payload["all_done"] is False
        assert payload["shard_states"]["done"] == 1
        assert payload["shard_states"]["pending"] == 1
        states = {shard["shard"]: shard["state"] for shard in payload["shards"]}
        assert sorted(states) == ["shard-0000", "shard-0001"]
        assert sorted(states.values()) == ["done", "pending"]
        done = next(s for s in payload["shards"] if s["state"] == "done")
        assert done["records"] == 2
        assert done["worker"] == "w0"

    def test_status_json_all_done(self, tmp_path, suite, stub_execute, capsys):
        directory = tmp_path / "dispatch"
        plan_smoke(tmp_path, suite, shards=2)
        run_worker(directory, worker_id="w0")
        assert dispatch_main(["status", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_done"] is True
        assert payload["runs_done"] == payload["total_runs"] == 4
        assert payload["records"] == 4

    def test_plan_from_invalid_spec_lists_every_issue(self, tmp_path, capsys):
        spec_file = tmp_path / "bad-spec.json"
        spec_file.write_text(json.dumps({"count": 0, "bogus": 1, "seed": "x"}))
        assert (
            dispatch_main(
                [
                    "plan", str(tmp_path / "dispatch"),
                    "--spec", str(spec_file), "--shards", "2",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "invalid suite spec" in err
        for field in ("count", "bogus", "seed"):
            assert field in err


class TestLeaseObservability:
    def test_status_surfaces_lease_age_and_limit(self, tmp_path, suite):
        plan_smoke(tmp_path, suite, shards=2)
        queue = ShardQueue(tmp_path / "dispatch")
        lease = queue.claim("w0", lease_seconds=30.0)
        assert lease is not None
        claimed = queue.status()[lease.shard.index]
        assert claimed.state is ShardState.RUNNING
        assert claimed.stale is False
        assert claimed.lease_seconds == 30.0
        assert 0.0 <= claimed.heartbeat_age < 30.0
        other = next(s for s in queue.status() if s.shard.index != lease.shard.index)
        assert other.lease_seconds is None  # pending: nothing claimed it
        payload = claimed.to_dict()
        assert payload["lease_seconds"] == 30.0
        assert payload["stale"] is False
        lease.release()

    def test_status_marks_expired_heartbeat_stale(self, tmp_path, suite):
        plan_smoke(tmp_path, suite, shards=1)
        queue = ShardQueue(tmp_path / "dispatch")
        lease = queue.claim("w0", lease_seconds=0.05)
        time.sleep(0.1)
        status = queue.status()[0]
        assert status.state is ShardState.STALE
        assert status.stale is True
        assert status.to_dict()["stale"] is True
        assert status.heartbeat_age > status.lease_seconds == 0.05
        lease.release()

    def test_cli_status_shows_age_against_limit(
        self, tmp_path, suite, stub_execute, capsys
    ):
        plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        queue = ShardQueue(directory)
        lease = queue.claim("w0", lease_seconds=60.0)
        assert dispatch_main(["status", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "/60s" in out           # age rendered against its lease limit
        assert "(stale!)" not in out
        lease.release()

    def test_cli_status_flags_stale_lease(self, tmp_path, suite, stub_execute, capsys):
        plan_smoke(tmp_path, suite, shards=1)
        directory = tmp_path / "dispatch"
        queue = ShardQueue(directory)
        lease = queue.claim("w0", lease_seconds=0.05)
        time.sleep(0.1)
        assert dispatch_main(["status", str(directory)]) == 0
        assert "(stale!)" in capsys.readouterr().out
        lease.release()

    def test_status_json_includes_lease_fields(self, tmp_path, suite, capsys):
        plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        queue = ShardQueue(directory)
        lease = queue.claim("w0", lease_seconds=45.0)
        assert dispatch_main(["status", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_state = {s["state"]: s for s in payload["shards"]}
        assert by_state["running"]["lease_seconds"] == 45.0
        assert by_state["running"]["stale"] is False
        assert by_state["pending"]["lease_seconds"] is None
        lease.release()

    def test_claim_and_steal_metrics(self, tmp_path, suite):
        from repro.obs.metrics import METRICS

        METRICS.reset()
        try:
            plan_smoke(tmp_path, suite, shards=1)
            queue = ShardQueue(tmp_path / "dispatch")
            lease = queue.claim("w0", lease_seconds=0.05)
            assert lease is not None
            time.sleep(0.1)  # let the heartbeat expire
            stolen = queue.claim("thief", lease_seconds=30.0)
            assert stolen is not None
            claims = METRICS.counter("repro_dispatch_claims_total")
            assert claims.value(result="fresh") == 1
            assert claims.value(result="stolen") == 1
            stolen.release()
        finally:
            METRICS.reset()


class TestStatusJsonLeaseParity:
    def test_json_payload_carries_lease_fields(
        self, tmp_path, suite, stub_execute, capsys
    ):
        # The machine-readable listing must expose exactly what the human
        # table renders: lease limit, heartbeat age and staleness.
        plan_smoke(tmp_path, suite, shards=2)
        directory = tmp_path / "dispatch"
        queue = ShardQueue(directory)
        lease = queue.claim("w0", lease_seconds=60.0)
        assert dispatch_main(["status", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        claimed = next(s for s in payload["shards"] if s["state"] == "running")
        assert claimed["lease_seconds"] == 60.0
        assert 0.0 <= claimed["heartbeat_age"] < 60.0
        assert claimed["stale"] is False
        pending = next(s for s in payload["shards"] if s["state"] == "pending")
        assert pending["lease_seconds"] is None
        assert pending["heartbeat_age"] is None
        assert pending["stale"] is False
        lease.release()

    def test_json_payload_flags_stale_lease(
        self, tmp_path, suite, stub_execute, capsys
    ):
        plan_smoke(tmp_path, suite, shards=1)
        directory = tmp_path / "dispatch"
        queue = ShardQueue(directory)
        lease = queue.claim("w0", lease_seconds=0.05)
        time.sleep(0.1)
        assert dispatch_main(["status", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (shard,) = payload["shards"]
        assert shard["stale"] is True
        assert shard["heartbeat_age"] > shard["lease_seconds"] == 0.05
        lease.release()
