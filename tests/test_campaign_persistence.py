"""Tests for campaign result persistence (JSONL) and resumable campaigns."""

import json
import math

import pytest

import repro.bench.campaign as campaign_module
from repro.bench.campaign import Campaign
from repro.core.config import mls_v1
from repro.core.metrics import (
    CampaignResult,
    DetectionStats,
    ResourceStats,
    RunOutcome,
    RunRecord,
    append_record_jsonl,
)
from repro.core.mission import MissionConfig
from repro.world.scenario_gen import generate_suite


def make_record(scenario_id="s-0", repetition=0, outcome=RunOutcome.SUCCESS, system="MLS-V1"):
    return RunRecord(
        scenario_id=scenario_id,
        system_name=system,
        outcome=outcome,
        landing_error=0.4 if outcome is RunOutcome.SUCCESS else float("nan"),
        landed=outcome is RunOutcome.SUCCESS,
        mission_time=42.0,
        detection=DetectionStats(
            frames_with_visible_marker=10, frames_detected=9, deviation_samples=[0.2, 0.3]
        ),
        resources=ResourceStats(cpu_utilisation_samples=[0.5], memory_mb_samples=[512.0]),
        adverse_weather=True,
        failure_reason="" if outcome is RunOutcome.SUCCESS else "timeout",
        repetition=repetition,
    )


class TestRunRecordSerialization:
    def test_round_trip(self):
        record = make_record()
        restored = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored == record

    def test_nan_landing_error_encodes_as_null(self):
        record = make_record(outcome=RunOutcome.POOR_LANDING)
        data = record.to_dict()
        assert data["landing_error"] is None
        assert json.dumps(data)  # strictly JSON-serializable
        restored = RunRecord.from_dict(data)
        assert math.isnan(restored.landing_error)

    def test_stats_round_trip(self):
        record = make_record()
        restored = RunRecord.from_dict(record.to_dict())
        assert restored.detection.false_negative_rate == record.detection.false_negative_rate
        assert restored.resources.mean_cpu == record.resources.mean_cpu


class TestCampaignResultJsonl:
    def test_round_trip(self, tmp_path):
        result = CampaignResult(system_name="MLS-V1")
        result.add(make_record("s-0", 0))
        result.add(make_record("s-0", 1, outcome=RunOutcome.COLLISION))
        result.add(make_record("s-1", 0, outcome=RunOutcome.POOR_LANDING))
        path = result.to_jsonl(tmp_path / "out" / "result.jsonl")
        restored = CampaignResult.from_jsonl(path)
        assert len(restored) == 3
        assert restored.system_name == "MLS-V1"
        assert restored.success_rate == result.success_rate
        # NaN-aware equality: to_dict maps NaN landing errors to None.
        assert [r.to_dict() for r in restored.records] == [r.to_dict() for r in result.records]

    def test_append_grows_file_with_single_header(self, tmp_path):
        path = tmp_path / "result.jsonl"
        append_record_jsonl(path, "MLS-V1", make_record("s-0", 0))
        append_record_jsonl(path, "MLS-V1", make_record("s-1", 0))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["kind"] == "campaign-result"
        restored = CampaignResult.from_jsonl(path)
        assert len(restored) == 2

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "scenario-suite", "name": "x"}\n')
        with pytest.raises(ValueError):
            CampaignResult.from_jsonl(path)

    def test_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind": "campaign-result", "schema": 99, "system": "X"}\n')
        with pytest.raises(ValueError, match="schema 99"):
            CampaignResult.from_jsonl(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            CampaignResult.from_jsonl(path)

    def test_torn_trailing_line_is_dropped_with_warning(self, tmp_path):
        # A campaign killed mid-append leaves a half-written final line; the
        # loader must still recover every complete record.
        path = tmp_path / "result.jsonl"
        append_record_jsonl(path, "MLS-V1", make_record("s-0", 0))
        append_record_jsonl(path, "MLS-V1", make_record("s-1", 0))
        with path.open("a") as handle:
            handle.write('{"scenario_id": "s-2", "outco')
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            restored = CampaignResult.from_jsonl(path)
        assert [r.scenario_id for r in restored.records] == ["s-0", "s-1"]

    def test_malformed_middle_line_still_raises(self, tmp_path):
        path = tmp_path / "result.jsonl"
        append_record_jsonl(path, "MLS-V1", make_record("s-0", 0))
        with path.open("a") as handle:
            handle.write("not json\n")
        append_record_jsonl(path, "MLS-V1", make_record("s-1", 0))
        with pytest.raises(ValueError, match="malformed run record"):
            CampaignResult.from_jsonl(path)


class TestCampaignResume:
    """Resume semantics via a stubbed executor (no real missions)."""

    @pytest.fixture
    def stub_execute(self, monkeypatch):
        calls = []

        def fake_execute(job):
            calls.append((job.scenario.scenario_id, job.repetition))
            record = make_record(
                job.scenario.scenario_id, job.repetition, system=job.system.name
            )
            return record

        monkeypatch.setattr(campaign_module, "_execute_job", fake_execute)
        monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)
        return calls

    def _campaign(self, out_dir):
        return (
            Campaign(mls_v1())
            .suite(generate_suite("smoke", count=3, seed=1))
            .repetitions(2)
            .out(out_dir)
        )

    def test_results_persisted_per_run(self, tmp_path, stub_execute):
        results = self._campaign(tmp_path).run()
        assert len(results["MLS-V1"]) == 6
        assert len(stub_execute) == 6
        restored = CampaignResult.from_jsonl(tmp_path / "MLS-V1.jsonl")
        assert len(restored) == 6

    def test_rerun_restores_instead_of_executing(self, tmp_path, stub_execute):
        first = self._campaign(tmp_path).run()
        stub_execute.clear()
        second = self._campaign(tmp_path).run()
        assert stub_execute == []  # nothing re-executed
        assert second["MLS-V1"].records == first["MLS-V1"].records

    def test_partial_resume_runs_only_missing(self, tmp_path, stub_execute):
        # Persist results for a 2-scenario subset, then run the 3-scenario
        # campaign: only the missing scenario's runs execute.
        (
            Campaign(mls_v1())
            .suite(generate_suite("smoke", count=2, seed=1))
            .repetitions(2)
            .out(tmp_path)
            .run()
        )
        stub_execute.clear()
        results = self._campaign(tmp_path).run()
        assert len(results["MLS-V1"]) == 6
        assert len(stub_execute) == 2  # one new scenario x two repetitions
        restored = CampaignResult.from_jsonl(tmp_path / "MLS-V1.jsonl")
        assert len(restored) == 6

    def test_refuses_foreign_result_file(self, tmp_path, stub_execute):
        foreign = CampaignResult(system_name="OTHER")
        foreign.add(make_record("x", 0, system="OTHER"))
        foreign.to_jsonl(tmp_path / "MLS-V1.jsonl")
        with pytest.raises(ValueError, match="refusing to resume"):
            self._campaign(tmp_path).run()

    def test_refuses_colliding_ids_with_different_contents(self, tmp_path, stub_execute):
        # The paper suite's scenario ids ("map00-s00") do not encode the base
        # seed, so two different seeds collide on id with different contents:
        # resuming across them must be refused, not silently served.
        from repro.world.scenario_suite import build_evaluation_suite

        def paper_campaign(base_seed):
            return (
                Campaign(mls_v1())
                .suite(build_evaluation_suite(base_seed=base_seed).subset(2))
                .repetitions(1)
                .out(tmp_path)
            )

        paper_campaign(7).run()
        with pytest.raises(ValueError, match="different scenario contents"):
            paper_campaign(999).run()

    def test_mission_config_change_invalidates_resume(self, tmp_path, stub_execute):
        self._campaign(tmp_path).run()
        changed = self._campaign(tmp_path).mission(MissionConfig(max_mission_time=1.0))
        with pytest.raises(ValueError, match="different campaign configuration"):
            changed.run()

    def test_growing_repetitions_resumes(self, tmp_path, stub_execute):
        # Repetitions are excluded from the fingerprint: raising the count
        # must execute only the new repetitions.
        self._campaign(tmp_path).run()
        stub_execute.clear()
        more = (
            Campaign(mls_v1())
            .suite(generate_suite("smoke", count=3, seed=1))
            .repetitions(3)
            .out(tmp_path)
        )
        results = more.run()
        assert len(results["MLS-V1"]) == 9
        assert len(stub_execute) == 3  # only the third repetition ran

    def test_torn_file_heals_on_resume(self, tmp_path, stub_execute):
        self._campaign(tmp_path).run()
        path = tmp_path / "MLS-V1.jsonl"
        with path.open("a") as handle:
            handle.write('{"half": "written')
        stub_execute.clear()
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            self._campaign(tmp_path).run()
        assert stub_execute == []  # all six complete records restored
        # The torn line is gone: loading again is clean.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = CampaignResult.from_jsonl(path)
        assert len(restored) == 6

    def test_interrupted_heal_keeps_every_record(self, tmp_path, stub_execute, monkeypatch):
        # A resume stopped part-way through healing a torn file (Ctrl-C
        # after one record is re-encoded) must leave every record on disk.
        self._campaign(tmp_path).run()
        path = tmp_path / "MLS-V1.jsonl"
        with path.open("a") as handle:
            handle.write('{"half": "written')
        to_dict, calls = RunRecord.to_dict, []

        def interrupted_to_dict(record):
            calls.append(record)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return to_dict(record)

        monkeypatch.setattr(RunRecord, "to_dict", interrupted_to_dict)
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            with pytest.raises(KeyboardInterrupt):
                self._campaign(tmp_path).run()
        monkeypatch.setattr(RunRecord, "to_dict", to_dict)
        assert len(calls) == 2
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            assert len(CampaignResult.from_jsonl(path)) == 6
        assert list(tmp_path.iterdir()) == [path]  # no temp sibling left

    def test_no_out_means_no_files(self, tmp_path, stub_execute):
        campaign = (
            Campaign(mls_v1()).suite(generate_suite("smoke", count=2, seed=1)).repetitions(1)
        )
        campaign.run()
        assert list(tmp_path.iterdir()) == []


class TestCampaignSuiteSpecs:
    def test_suite_accepts_preset_name(self):
        campaign = Campaign(mls_v1()).suite("smoke")
        jobs = campaign.jobs()
        assert len(jobs) == 2  # 2 scenarios x 1 repetition

    def test_unknown_preset_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown suite preset"):
            Campaign(mls_v1()).suite("no-such-preset")

    def test_seed_applies_to_preset_suites(self):
        # .seed() must re-seed a preset/spec suite regardless of call order.
        default = Campaign(mls_v1()).suite("smoke").jobs()
        seeded = Campaign(mls_v1()).suite("smoke").seed(7).jobs()
        seeded_first = Campaign(mls_v1()).seed(7).suite("smoke").jobs()
        assert [j.scenario.to_dict() for j in seeded] != [
            j.scenario.to_dict() for j in default
        ]
        assert [j.scenario.to_dict() for j in seeded] == [
            j.scenario.to_dict() for j in seeded_first
        ]

    def test_suite_accepts_spec(self):
        from repro.world.scenario_gen import SUITE_PRESETS

        spec = SUITE_PRESETS["smoke"].with_overrides(count=3, repetitions=2)
        jobs = Campaign(mls_v1()).suite(spec).jobs()
        assert len(jobs) == 6

    def test_suite_rejects_other_types(self):
        with pytest.raises(TypeError):
            Campaign(mls_v1()).suite(123)


@pytest.mark.slow
class TestEndToEndPersistence:
    def test_real_campaign_round_trips_through_jsonl(self, tmp_path):
        suite = generate_suite("smoke", count=2, seed=5)
        results = (
            Campaign(mls_v1())
            .suite(suite)
            .repetitions(1)
            .mission(MissionConfig(max_mission_time=30.0))
            .out(tmp_path)
            .run()
        )
        restored = CampaignResult.from_jsonl(tmp_path / "MLS-V1.jsonl")
        as_dicts = lambda result: [r.to_dict() for r in result.records]
        assert as_dicts(restored) == as_dicts(results["MLS-V1"])
        # A second run restores everything without re-flying missions.
        again = (
            Campaign(mls_v1())
            .suite(suite)
            .repetitions(1)
            .mission(MissionConfig(max_mission_time=30.0))
            .out(tmp_path)
            .run()
        )
        assert as_dicts(again["MLS-V1"]) == as_dicts(results["MLS-V1"])
