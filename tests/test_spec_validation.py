"""Tests for structured suite-spec/fault-axis validation
(repro.world.spec_validation) and its CLI wiring."""

import json

import pytest

from repro.faults.spec import FAULT_PRESETS, FaultSpec
from repro.scenarios import main as scenarios_main
from repro.world.scenario_gen import SUITE_PRESETS, SuiteSpec
from repro.world.spec_validation import (
    SpecIssue,
    SpecValidationError,
    load_suite_spec,
    validate_fault_axis,
    validate_suite_spec,
)


class TestValidateSuiteSpec:
    def test_valid_spec_round_trips(self):
        original = SUITE_PRESETS["smoke"]
        rebuilt = validate_suite_spec(original.to_dict())
        assert isinstance(rebuilt, SuiteSpec)
        assert rebuilt.to_dict() == original.to_dict()

    def test_every_problem_reported_at_once(self):
        with pytest.raises(SpecValidationError) as excinfo:
            validate_suite_spec(
                {
                    "count": 0,
                    "seed": "seven",
                    "bogus": 1,
                    "name": 3,
                    "scenario": {"wrong_axis": 1},
                }
            )
        fields = {issue.field for issue in excinfo.value.issues}
        assert {"count", "seed", "bogus", "name", "scenario.wrong_axis"} <= fields

    def test_error_is_a_value_error_with_readable_str(self):
        with pytest.raises(ValueError) as excinfo:
            validate_suite_spec({"count": -2})
        message = str(excinfo.value)
        assert "invalid suite spec" in message
        assert "count" in message

    def test_to_payload_shape(self):
        error = SpecValidationError(
            [SpecIssue("count", "must be positive, got 0")]
        )
        payload = error.to_payload()
        assert payload == {
            "error": "invalid suite spec",
            "issues": [{"field": "count", "reason": "must be positive, got 0"}],
        }

    def test_non_object_payload(self):
        with pytest.raises(SpecValidationError, match="expected a SuiteSpec object"):
            validate_suite_spec([1, 2, 3])

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SpecValidationError) as excinfo:
            validate_suite_spec({"count": True})
        assert excinfo.value.issues[0].field == "count"


class TestValidateFaultAxis:
    def test_preset_name_resolves_without_paths(self):
        specs = validate_fault_axis("smoke")
        assert specs == FAULT_PRESETS["smoke"]

    def test_path_like_string_refused_without_paths(self):
        with pytest.raises(SpecValidationError, match="file paths are not accepted"):
            validate_fault_axis("plans/faults.json")

    def test_inline_spec_list(self):
        payload = [spec.to_dict() for spec in FAULT_PRESETS["smoke"]]
        specs = validate_fault_axis(payload)
        assert all(isinstance(spec, FaultSpec) for spec in specs)
        assert [s.to_dict() for s in specs] == payload

    def test_bad_list_items_reported_per_index(self):
        with pytest.raises(SpecValidationError) as excinfo:
            validate_fault_axis([42, {"kind": "nope"}])
        fields = [issue.field for issue in excinfo.value.issues]
        assert fields[0] == "faults[0]"
        assert fields[1] == "faults[1]"

    def test_none_is_empty(self):
        assert validate_fault_axis(None) == ()


class TestLoadSuiteSpec:
    def test_reads_and_validates(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SUITE_PRESETS["smoke"].to_dict()))
        spec = load_suite_spec(path)
        assert spec.to_dict() == SUITE_PRESETS["smoke"].to_dict()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_suite_spec(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            load_suite_spec(path)


class TestScenariosCliSpec:
    def test_generate_from_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SUITE_PRESETS["smoke"].to_dict()))
        assert scenarios_main(
            ["generate", "--spec", str(path), "--count", "3", "--seed", "5"]
        ) == 0
        assert "3" in capsys.readouterr().out

    def test_run_from_spec_file_flies_its_faults(self, tmp_path, monkeypatch, capsys):
        """A spec file that would fly its own fault axis is refused (exit 2,
        the field named): the fault axis comes only from ``--faults``."""
        import repro.bench.campaign as campaign_module

        flown = []
        monkeypatch.setattr(campaign_module, "_execute_job", flown.append)
        data = SUITE_PRESETS["smoke"].to_dict()
        data["faults"] = [spec.to_dict() for spec in FAULT_PRESETS["smoke"]]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        assert scenarios_main(
            ["run", "--spec", str(path), "--systems", "mls-v1", "--faults", "smoke"]
        ) == 2
        err = capsys.readouterr().err
        assert "faults: a suite spec carries no fault axis" in err
        assert not flown

    def test_invalid_spec_exits_2_with_issue_list(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"count": 0, "wrong": 1}))
        assert scenarios_main(["generate", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid suite spec" in err
        assert "count" in err and "wrong" in err
