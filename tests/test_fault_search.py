"""Tests for the fault-space search engine (repro.faults.search).

Mission execution is stubbed with a severity-aware record factory: each
scenario has a planted critical severity, and the fake classification flips
from success to collision exactly at that threshold.  That makes bisection
correctness checkable against ground truth and keeps the determinism tests
(re-run, kill-and-resume, worker interleaving, probe-order invariance) fast.
The CI ``sweep-smoke`` job covers the real-mission path end to end against
committed baselines.
"""

import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro.bench.campaign as campaign_module
from repro.core.config import mls_v1, mls_v2
from repro.core.metrics import DetectionStats, RunOutcome, RunRecord
from repro.dispatch.worker import run_worker
from repro.faults.cli import main as faults_main
from repro.faults.search import (
    DispatchProbeBackend,
    Probe,
    bisect_severity,
    read_bisection,
    read_curve,
    render_bisection_report,
    run_sweep,
    severity_ladder,
    sweep_probes,
    write_bisection,
)
from repro.faults.search.curves import parse_severities, validate_severities
from repro.faults.spec import FaultSpec
from repro.world.scenario_gen import generate_suite

#: Planted critical severity per scenario index (scenario ids end ``-000N``).
THRESHOLDS = {0: 0.35, 1: 0.65, 2: 0.15, 3: 0.85}

SPECS = (
    FaultSpec(target="camera", mode="freeze", severity=0.8, start=25.0, duration=20.0),
    FaultSpec(target="planning", mode="timeout", severity=0.7, start=40.0, duration=30.0),
)


def planted_threshold(scenario_id):
    return THRESHOLDS[int(scenario_id.rsplit("-", 1)[1])]


def make_record(job):
    """Deterministic severity-dependent fake mission result."""
    spec = job.faults[0]
    crashes = spec.severity >= planted_threshold(job.scenario.scenario_id)
    return RunRecord(
        scenario_id=job.scenario.scenario_id,
        system_name=job.system.name,
        outcome=RunOutcome.COLLISION if crashes else RunOutcome.SUCCESS,
        landing_error=float("nan") if crashes else 0.4,
        collided=crashes,
        landed=not crashes,
        mission_time=42.0,
        detection=DetectionStats(frames_with_visible_marker=10, frames_detected=9),
        repetition=job.repetition,
        injected_faults=[
            {
                "name": spec.name,
                "target": spec.target,
                "mode": spec.mode,
                "severity": spec.severity,
                "armed": True,
                "activated": True,
                "events": 3,
            }
        ],
    )


@pytest.fixture
def stub_execute(monkeypatch):
    """Replace mission execution with the severity-aware record factory."""
    calls = []

    def fake_execute(job):
        calls.append((job.system.name, job.scenario.scenario_id,
                      job.repetition, job.faults[0].severity))
        return make_record(job)

    monkeypatch.setattr(campaign_module, "_execute_job", fake_execute)
    monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)
    return calls


@pytest.fixture
def interleaved_workers(monkeypatch):
    """Swap local worker processes for two in-process workers alternating
    shard claims: the contention pattern ``run_local_workers`` produces,
    minus the processes (which would not see the monkeypatched executor).
    Returns the correlation ids each drain was given."""
    import repro.dispatch.worker as worker_module

    drains = []

    def two_workers(directory, *, workers, lease_seconds, correlation, trace_dir):
        drains.append(correlation)
        for worker_id, max_shards in (("w0", 1), ("w1", None), ("w0", None)):
            run_worker(
                directory, worker_id=worker_id, max_shards=max_shards, wait=False,
                correlation=correlation, trace_dir=trace_dir,
            )

    monkeypatch.setattr(worker_module, "run_local_workers", two_workers)
    return drains


@pytest.fixture
def suite():
    return generate_suite("smoke", count=2, seed=7, repetitions=1)


def make_backend(root, suite, **kwargs):
    kwargs.setdefault("repetitions", 1)
    return DispatchProbeBackend(Path(root) / "probes", suite, [mls_v1()], **kwargs)


def curve_bytes(out_dir):
    out_dir = Path(out_dir)
    return (
        (out_dir / "curves" / "coverage.jsonl").read_bytes(),
        (out_dir / "curves" / "failure-modes.jsonl").read_bytes(),
        (out_dir / "sweep.md").read_bytes(),
    )


class TestLadder:
    def test_severity_ladder_endpoints_and_spacing(self):
        assert severity_ladder(3) == (0.0, 0.5, 1.0)
        assert severity_ladder(5) == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_ladder_needs_two_points(self):
        with pytest.raises(ValueError):
            severity_ladder(1)

    def test_parse_severities_sorts_and_dedupes(self):
        assert parse_severities("1,0.5,0.5,0") == (0.0, 0.5, 1.0)

    def test_severities_range_checked(self):
        with pytest.raises(ValueError):
            validate_severities([0.5, 1.5])
        with pytest.raises(ValueError):
            parse_severities("zero")


class TestSweep:
    def test_probe_grid_covers_specs_x_severities(self, suite):
        probes = sweep_probes(suite, SPECS, (0.0, 0.5, 1.0))
        assert len(probes) == 6
        assert {p.spec.name for p in probes} == {s.name for s in SPECS}
        # Severity variants keep the curve key (the spec name).
        assert all(p.scenario_ids == ("smoke-7-0000", "smoke-7-0001") for p in probes)

    def test_sweep_points_and_files(self, tmp_path, stub_execute, suite):
        backend = make_backend(tmp_path, suite)
        result = run_sweep(
            backend, SPECS, severity_ladder(3), out_dir=tmp_path / "sweep"
        )
        assert len(result.points) == 6
        by_key = {(p.counters.name, p.severity): p.counters for p in result.points}
        # Below both thresholds nothing escapes; above both everything does.
        for spec in SPECS:
            assert by_key[(spec.name, 0.0)].escaped == 0
            assert by_key[(spec.name, 0.0)].absorbed == 2
            assert by_key[(spec.name, 1.0)].escaped == 2
        header, rows = read_curve(result.coverage_path)
        assert header["curve"] == "coverage-vs-severity"
        assert header["points"] == len(rows) == 6
        assert rows[0]["fault"] == "camera-freeze"
        _, mode_rows = read_curve(result.failure_modes_path)
        assert mode_rows[0]["modes"]["degraded-success"] == 2
        assert "## Coverage vs severity" in result.report

    def test_rerun_is_byte_identical_and_memoized(self, tmp_path, stub_execute, suite):
        backend = make_backend(tmp_path / "a", suite)
        run_sweep(backend, SPECS, severity_ladder(3), out_dir=tmp_path / "a")
        first = curve_bytes(tmp_path / "a")
        flights = len(stub_execute)
        assert flights == 12  # 2 specs x 3 severities x 2 scenarios

        # Same backend: memoized, no extra flights.
        run_sweep(backend, SPECS, severity_ladder(3), out_dir=tmp_path / "a")
        assert len(stub_execute) == flights
        assert curve_bytes(tmp_path / "a") == first

        # Fresh backend over the same directory tree: resumes from disk,
        # still no extra flights, still byte-identical.
        resumed = make_backend(tmp_path / "a", suite)
        run_sweep(resumed, SPECS, severity_ladder(3), out_dir=tmp_path / "a")
        assert len(stub_execute) == flights
        assert curve_bytes(tmp_path / "a") == first

        # And an independent directory reproduces the same bytes.
        other = make_backend(tmp_path / "b", suite)
        run_sweep(other, SPECS, severity_ladder(3), out_dir=tmp_path / "b")
        assert curve_bytes(tmp_path / "b") == first

    def test_worker_interleaving_is_byte_identical(
        self, tmp_path, stub_execute, suite, interleaved_workers
    ):
        serial = make_backend(tmp_path / "serial", suite)
        run_sweep(serial, SPECS, severity_ladder(3), out_dir=tmp_path / "serial")
        assert not interleaved_workers  # one worker drains in-process

        sharded = make_backend(tmp_path / "multi", suite, shards=2, workers=2)
        run_sweep(sharded, SPECS, severity_ladder(3), out_dir=tmp_path / "multi")
        assert len(interleaved_workers) == 6  # one drain per probe
        assert all(set(ids) == {"probe"} for ids in interleaved_workers)
        assert curve_bytes(tmp_path / "multi") == curve_bytes(tmp_path / "serial")

    def test_killed_sweep_resumes_to_identical_bytes(self, tmp_path, monkeypatch, suite):
        monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)
        flown = []

        def dying_execute(job):
            if len(flown) == 3:
                raise RuntimeError("worker killed mid-sweep")
            flown.append(job.scenario.scenario_id)
            return make_record(job)

        monkeypatch.setattr(campaign_module, "_execute_job", dying_execute)
        dying = make_backend(tmp_path / "killed", suite, lease_seconds=0.2)
        with pytest.raises(RuntimeError, match="killed mid-sweep"):
            run_sweep(dying, SPECS, severity_ladder(3), out_dir=tmp_path / "killed")
        assert len(flown) == 3  # died partway through the probe batch

        # The crashed worker's lease must expire before a successor can
        # claim its shard through the lease protocol.
        time.sleep(0.25)
        monkeypatch.setattr(
            campaign_module, "_execute_job", lambda job: make_record(job)
        )
        resumed = make_backend(tmp_path / "killed", suite, lease_seconds=0.2)
        run_sweep(resumed, SPECS, severity_ladder(3), out_dir=tmp_path / "killed")

        serial = make_backend(tmp_path / "serial", suite)
        run_sweep(serial, SPECS, severity_ladder(3), out_dir=tmp_path / "serial")
        assert curve_bytes(tmp_path / "killed") == curve_bytes(tmp_path / "serial")

    def test_failed_report_write_keeps_the_previous_sweep_md(
        self, tmp_path, stub_execute, suite, monkeypatch
    ):
        import repro.faults.search.sweep as sweep_module

        backend = make_backend(tmp_path, suite)
        run_sweep(backend, SPECS, severity_ladder(3), out_dir=tmp_path / "sweep")
        report = tmp_path / "sweep" / "sweep.md"
        before = report.read_bytes()
        render = sweep_module.render_sweep_report
        # A lone surrogate cannot be encoded, so the write raises once the
        # report file is open: the previous bytes must survive it whole.
        monkeypatch.setattr(
            sweep_module, "render_sweep_report",
            lambda *args, **kwargs: render(*args, **kwargs) + "\ud800",
        )
        with pytest.raises(UnicodeEncodeError):
            run_sweep(backend, SPECS, severity_ladder(3), out_dir=tmp_path / "sweep")
        assert report.read_bytes() == before
        assert not list(report.parent.glob("*.tmp-*"))


class ReorderingBackend:
    """Evaluates every batch in reversed order (and re-orders the answers)."""

    def __init__(self, inner):
        self.inner = inner
        self.suite = inner.suite

    def describe(self):
        return self.inner.describe()

    def evaluate(self, probes):
        reversed_outcomes = self.inner.evaluate(list(reversed(probes)))
        return list(reversed(reversed_outcomes))


class TestBisection:
    def test_bisection_brackets_planted_thresholds(self, tmp_path, stub_execute, suite):
        backend = make_backend(tmp_path, suite)
        results = bisect_severity(backend, SPECS, resolution=0.125)
        assert len(results) == 4  # 2 specs x 2 scenarios x 1 system x 1 rep
        for result in results:
            truth = planted_threshold(result.scenario_id)
            assert result.lo_mode == "degraded-success"
            assert result.hi_mode == result.critical_mode == "crash"
            assert result.hi - result.lo <= 0.125
            # The planted flip lies inside the final bracket.
            assert result.lo < truth <= result.critical

    def test_no_flip_cells_report_none(self, tmp_path, monkeypatch, suite):
        monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)

        def always_crashes(job):
            return replace(
                make_record(job), outcome=RunOutcome.COLLISION, collided=True,
                landed=False,
            )

        monkeypatch.setattr(campaign_module, "_execute_job", always_crashes)
        backend = make_backend(tmp_path, suite)
        results = bisect_severity(backend, SPECS[:1], resolution=0.25)
        assert [r.critical for r in results] == [None, None]
        assert all(r.lo_mode == r.hi_mode == "crash" for r in results)
        assert all(r.probes == 2 for r in results)  # endpoints only

    def test_rerun_and_probe_order_invariance(
        self, tmp_path, stub_execute, suite, interleaved_workers
    ):
        first = bisect_severity(make_backend(tmp_path / "a", suite), SPECS,
                                resolution=0.125)
        again = bisect_severity(make_backend(tmp_path / "b", suite), SPECS,
                                resolution=0.125)
        assert again == first

        reordered = bisect_severity(
            ReorderingBackend(make_backend(tmp_path / "c", suite)), SPECS,
            resolution=0.125,
        )
        assert reordered == first

        assert not interleaved_workers
        multi = bisect_severity(
            make_backend(tmp_path / "d", suite, shards=2, workers=2),
            SPECS, resolution=0.125,
        )
        assert interleaved_workers
        assert multi == first

    def test_bisection_jsonl_roundtrip_is_byte_stable(self, tmp_path, stub_execute, suite):
        results = bisect_severity(make_backend(tmp_path, suite), SPECS,
                                  resolution=0.25)
        path = write_bisection(tmp_path / "bisect.jsonl", results,
                               meta={"resolution": "0.25"})
        first = path.read_bytes()
        header, rows = read_bisection(path)
        assert header["cells"] == len(rows) == len(results)
        assert rows[0]["fault"] == results[0].fault
        write_bisection(path, results, meta={"resolution": "0.25"})
        assert path.read_bytes() == first
        report = render_bisection_report(results, meta={"resolution": "0.25"})
        assert "## Minimal critical severity per fault" in report

    def test_bisection_rejects_bad_arguments(self, tmp_path, suite):
        backend = make_backend(tmp_path, suite)
        with pytest.raises(ValueError):
            bisect_severity(backend, SPECS, resolution=0.0)
        with pytest.raises(ValueError):
            bisect_severity(backend, SPECS, lo=0.5, hi=0.5)
        with pytest.raises(ValueError):
            bisect_severity(backend, [])


class TestBackend:
    def test_probe_directories_are_content_addressed(self, tmp_path, stub_execute, suite):
        backend = make_backend(tmp_path, suite)
        probe = sweep_probes(suite, SPECS[:1], (0.5,))[0]
        _, plan = backend.probe_plan(probe)
        directory = backend.probe_dir(probe, plan.fingerprint)
        assert directory.name.startswith("camera-freeze-s0p5-")
        backend.evaluate([probe])
        assert (directory / "plan.json").is_file()

    def test_unknown_scenario_refused(self, tmp_path, suite):
        backend = make_backend(tmp_path, suite)
        probe = Probe(spec=SPECS[0], scenario_ids=("nope",))
        with pytest.raises(ValueError, match="not in the suite"):
            backend.evaluate([probe])

    def test_multi_system_records_cover_all_systems(self, tmp_path, stub_execute, suite):
        backend = DispatchProbeBackend(
            tmp_path / "probes", suite, [mls_v1(), mls_v2()], repetitions=1
        )
        probes = sweep_probes(suite, SPECS[:1], (0.0, 1.0))
        outcomes = backend.evaluate(probes)
        assert {r.system_name for r in outcomes[0].records} == {"MLS-V1", "MLS-V2"}
        results = bisect_severity(backend, SPECS[:1], resolution=0.25)
        assert len(results) == 4  # 2 scenarios x 2 systems
        assert {r.system for r in results} == {"MLS-V1", "MLS-V2"}


class TestCli:
    def test_sweep_cli_writes_curves_and_report(self, tmp_path, stub_execute, capsys):
        out = tmp_path / "sweep"
        code = faults_main(
            [
                "sweep", "--preset", "smoke", "--count", "2", "--seed", "7",
                "--repetitions", "1", "--faults", "smoke", "--systems", "mls-v1",
                "--severities", "0,1", "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "curves" / "coverage.jsonl").is_file()
        assert (out / "curves" / "failure-modes.jsonl").is_file()
        assert "## Coverage vs severity" in capsys.readouterr().out

    def test_bisect_cli_writes_results(self, tmp_path, stub_execute, capsys):
        out = tmp_path / "bisect"
        code = faults_main(
            [
                "bisect", "--preset", "smoke", "--count", "2", "--seed", "7",
                "--repetitions", "1", "--faults", "smoke", "--systems", "mls-v1",
                "--resolution", "0.25", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_bisection(out / "bisect.jsonl")
        assert header["cells"] == len(rows) == 6  # 3 smoke specs x 2 scenarios
        assert "## Critical severity per cell" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "bisect"])
    def test_service_flag_is_gone(self, tmp_path, capsys, command):
        # Probes fly only through Campaign.dispatch.
        with pytest.raises(SystemExit) as excinfo:
            faults_main(
                [command, "--service", "http://127.0.0.1:9", "--out", str(tmp_path)]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --service" in capsys.readouterr().err

    def test_cli_rejects_bad_severities(self, tmp_path, capsys):
        code = faults_main(
            [
                "sweep", "--preset", "smoke", "--count", "1", "--seed", "7",
                "--faults", "smoke", "--systems", "mls-v1",
                "--severities", "0,2", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_list_shows_severity_and_schedule_columns(self, capsys):
        assert faults_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Severities" in out
        assert "Schedule" in out

    def test_describe_ladder_expands_the_sweep_grid(self, capsys):
        assert faults_main(["describe", "--faults", "vehicle", "--ladder", "3"]) == 0
        out = capsys.readouterr().out
        assert "severity ladder (3 points): 0, 0.5, 1" in out
        # Each vehicle spec appears once per rung in the expanded grid.
        assert out.count("vehicle-ekf-reset") >= 3


class TestCoverageGate:
    def persist_records(self, tmp_path, stub_execute, suite):
        # Severity 0.5 sits between the planted thresholds (0.35, 0.65), so
        # one scenario escapes and the other absorbs: coverage 1/2.
        campaign = campaign_module.Campaign(mls_v1())
        campaign.suite(suite).faults(replace(SPECS[0], severity=0.5))
        campaign.repetitions(1)
        campaign.out(tmp_path / "results")
        campaign.run()
        return tmp_path / "results"

    def test_gate_passes_and_fails_on_wilson_lower_bound(
        self, tmp_path, stub_execute, suite, capsys
    ):
        results = self.persist_records(tmp_path, stub_execute, suite)
        code = faults_main(["coverage", str(results), "--gate",
                            "--min-coverage", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage gate passed" in out

        code = faults_main(["coverage", str(results), "--gate",
                            "--min-coverage", "0.99"])
        out = capsys.readouterr().out
        assert code == 1
        assert "coverage gate FAILED" in out

    def test_gate_requires_min_coverage(self, tmp_path, stub_execute, suite, capsys):
        results = self.persist_records(tmp_path, stub_execute, suite)
        assert faults_main(["coverage", str(results), "--gate"]) == 2
        assert "requires --min-coverage" in capsys.readouterr().err

    def test_gate_bound_is_stricter_than_observed(self, tmp_path, stub_execute, suite):
        """The Wilson bound fails a bar the raw proportion would pass."""
        results = self.persist_records(tmp_path, stub_execute, suite)
        from repro.analysis.io import iter_records
        from repro.faults.coverage import accumulate_coverage

        report = accumulate_coverage(iter_records([results]))
        observed = report.overall_coverage
        assert observed == observed  # some data activated
        assert faults_main(
            ["coverage", str(results), "--gate", "--min-coverage", str(observed)]
        ) == 1


class TestSeverityBandFactor:
    def test_records_slice_by_severity_band(self, tmp_path, stub_execute, suite):
        from repro.analysis.slicing import FACTORS, severity_band

        assert "fault-severity-band" in FACTORS
        assert severity_band(0.1) == "mild (<0.25)"
        assert severity_band(0.5) == "severe (0.5-0.75)"
        assert severity_band(0.9) == "extreme (>=0.75)"

        backend = make_backend(tmp_path, suite)
        outcomes = backend.evaluate(sweep_probes(suite, SPECS[:1], (0.1, 0.9)))
        from repro.analysis.slicing import RecordContext, slice_contexts

        contexts = [
            RecordContext(record=record)
            for outcome in outcomes
            for record in outcome.records
        ]
        slices = slice_contexts(contexts, "fault-severity-band")
        assert set(slices) == {"mild (<0.25)", "extreme (>=0.75)"}
