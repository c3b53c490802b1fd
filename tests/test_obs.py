"""Tests for the observability subsystem (repro.obs).

The load-bearing contract — campaign records are byte-identical with
tracing on or off — is asserted here over a real (short) campaign; the CI
``obs-smoke`` job re-checks it with ``cmp`` over the standard smoke suite.
"""

import json
import sys
import threading

import pytest

from repro.bench.campaign import Campaign
from repro.obs.metrics import (
    METRICS,
    DEFAULT_BUCKETS,
    MetricsRegistry,
    format_value,
)
from repro.obs.report import (
    collect_summaries,
    main as obs_main,
    render_phase_report,
)
from repro.obs.trace import (
    PHASES,
    FlightRecorder,
    append_trace_summary,
    iter_trace_summaries,
    trace_filename,
)


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        runs = registry.counter("runs_total", "Completed runs.")
        runs.inc(system="MLS-V1", outcome="success")
        runs.inc(2, system="MLS-V1", outcome="success")
        runs.inc(system="MLS-V2", outcome="crash")
        assert runs.value(system="MLS-V1", outcome="success") == 3
        assert runs.value(system="MLS-V2", outcome="crash") == 1
        assert runs.value(system="MLS-V3", outcome="success") == 0.0

    def test_counter_refuses_negative_increments(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("c", "").inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth", "")
        depth.set(5)
        depth.inc()
        depth.dec(2)
        assert depth.value() == 4

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        latency = registry.histogram("latency_seconds", "", buckets=(0.1, 1.0))
        latency.observe(0.05, route="/jobs")
        latency.observe(0.5, route="/jobs")
        latency.observe(30.0, route="/jobs")
        assert latency.count(route="/jobs") == 3
        assert latency.sum(route="/jobs") == pytest.approx(30.55)
        text = "\n".join(latency.render())
        assert 'latency_seconds_bucket{route="/jobs",le="0.1"} 1' in text
        assert 'latency_seconds_bucket{route="/jobs",le="1"} 2' in text
        assert 'latency_seconds_bucket{route="/jobs",le="+Inf"} 3' in text
        assert 'latency_seconds_count{route="/jobs"} 3' in text

    def test_reregistration_returns_existing_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", "Cache hits.")
        second = registry.counter("hits", "different help, same metric")
        assert first is second

    def test_reregistration_under_other_type_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing", "")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing", "")

    def test_prometheus_rendering_is_order_independent(self):
        def build(order):
            registry = MetricsRegistry()
            for system in order:
                registry.counter("runs_total", "Runs.").inc(system=system)
            registry.gauge("alive", "Liveness.").set(1)
            return registry.render_prometheus()

        assert build(["b", "a", "c"]) == build(["c", "a", "b"])

    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "Completed runs.").inc(system='we"ird\n')
        text = registry.render_prometheus()
        assert "# HELP runs_total Completed runs." in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{system="we\\"ird\\n"} 1' in text
        assert text.endswith("\n")

    def test_snapshot_reports_histograms_as_counts(self):
        registry = MetricsRegistry()
        registry.histogram("h", "").observe(0.2, k="v")
        registry.counter("c", "").inc()
        assert registry.snapshot() == {"c": {"{}": 1.0}, "h": {'{k="v"}': 1.0}}

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_concurrent_writers_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("n", "")

        def spin():
            for _ in range(1000):
                counter.inc(worker="w")

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(worker="w") == 4000


# ---------------------------------------------------------------------- #
# flight recorder + trace files
# ---------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_spans_counters_and_nominal_roll_up(self):
        recorder = FlightRecorder()
        start = recorder.start()
        recorder.add("detect", start)
        recorder.add("detect", recorder.start())
        recorder.count("frames-lost")
        recorder.count("frames-rendered", 3)
        recorder.charge_nominal(0.012, 0.028, 0.001)
        recorder.charge_nominal(0.012, 0.028, 0.001)
        summary = recorder.summary(system="S", scenario_id="sc-1", repetition=2)
        assert summary["system"] == "S"
        assert summary["scenario_id"] == "sc-1"
        assert summary["repetition"] == 2
        assert summary["spans"]["detect"]["count"] == 2
        assert summary["spans"]["detect"]["wall_s"] > 0.0
        assert summary["counters"] == {"frames-rendered": 3, "frames-lost": 1}
        assert summary["nominal_s"]["detect"] == pytest.approx(0.024)
        assert summary["nominal_s"]["map"] == pytest.approx(0.056)
        assert summary["nominal_s"]["plan"] == pytest.approx(0.002)

    def test_trace_filename_slugs_like_result_files(self):
        assert trace_filename("MLS-V1") == "MLS-V1.trace.jsonl"
        assert trace_filename("weird name/v2") == "weird_name_v2.trace.jsonl"

    def test_append_and_iter_round_trip(self, tmp_path):
        recorder = FlightRecorder()
        recorder.add("plan", recorder.start())
        path = append_trace_summary(
            tmp_path, recorder, system="MLS-V1", scenario_id="a", repetition=0
        )
        append_trace_summary(
            tmp_path, recorder, system="MLS-V1", scenario_id="b", repetition=1
        )
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "flight-trace"
        assert header["phases"] == list(PHASES)
        assert len(lines) == 3  # header + two summaries
        summaries = list(iter_trace_summaries(path))
        assert [s["scenario_id"] for s in summaries] == ["a", "b"]

    def test_concurrent_appends_keep_one_header(self, tmp_path):
        def append(index):
            recorder = FlightRecorder()
            append_trace_summary(
                tmp_path, recorder,
                system="MLS-V1", scenario_id=f"s{index}", repetition=0,
            )

        threads = [threading.Thread(target=append, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        path = tmp_path / trace_filename("MLS-V1")
        lines = path.read_text().splitlines()
        headers = [l for l in lines if json.loads(l).get("kind") == "flight-trace"]
        assert len(headers) == 1
        assert len(list(iter_trace_summaries(path))) == 8
        assert list(tmp_path.iterdir()) == [path]  # no leftover temp files


# ---------------------------------------------------------------------- #
# the side-channel contract
# ---------------------------------------------------------------------- #
def short_campaign():
    from repro.world.scenario_gen import generate_suite

    return (
        Campaign("mls-v1")
        .suite(generate_suite("smoke", count=1, seed=3))
        .mission(max_mission_time=8.0)
    )


class TestTracingSideChannel:
    def test_traced_records_byte_identical_to_untraced(self, tmp_path):
        # Faulted, so the harness hooks run under the byte-identity check too.
        faulted = lambda: short_campaign().faults("smoke")
        faulted().out(tmp_path / "plain").run()
        faulted().out(tmp_path / "traced").trace(tmp_path / "trace").run()
        assert (tmp_path / "plain" / "MLS-V1.jsonl").read_bytes() == (
            tmp_path / "traced" / "MLS-V1.jsonl"
        ).read_bytes()
        short_campaign().trace(tmp_path / "nominal").run()
        [summary] = iter_trace_summaries(tmp_path / "trace" / "MLS-V1.trace.jsonl")
        [nominal] = iter_trace_summaries(tmp_path / "nominal" / "MLS-V1.trace.jsonl")
        for phase in ("physics", "sense", "detect", "plan", "control"):
            assert nominal["spans"][phase]["count"] > 0, phase
        assert "harness" not in nominal["spans"]
        # Three hooks per depth tick (estimate, cloud, mapping) and three per
        # decision tick (estimate, frame, command), every one timed.
        counters = summary["counters"]
        assert summary["spans"]["harness"]["count"] == 3 * (
            counters["depth-captures"] + counters["frames-rendered"]
        ) > 0

    def test_trace_dir_env_var_reaches_execution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "envtrace"))
        short_campaign().run()
        assert (tmp_path / "envtrace" / "MLS-V1.trace.jsonl").exists()

    def test_run_metrics_exported(self, tmp_path):
        METRICS.reset()
        try:
            short_campaign().run()
            snapshot = METRICS.snapshot()
            runs = snapshot["repro_runs_total"]
            assert sum(runs.values()) == 1
            assert all('system="MLS-V1"' in key for key in runs)
            assert sum(snapshot["repro_frames_total"].values()) > 0
            assert sum(snapshot["repro_mission_seconds"].values()) == 1
        finally:
            METRICS.reset()


# ---------------------------------------------------------------------- #
# the report
# ---------------------------------------------------------------------- #
def synthetic_trace(directory, order):
    for scenario_id, repetition in order:
        recorder = FlightRecorder()
        recorder.add("detect", recorder.start())
        recorder.count("frames-lost", 2)
        recorder.count("frames-rendered", 6)
        recorder.count("depth-captures", 4)
        recorder.charge_nominal(0.012, 0.028, 0.001)
        append_trace_summary(
            directory, recorder,
            system="MLS-V3", scenario_id=scenario_id, repetition=repetition,
        )


class TestPhaseReport:
    def test_report_independent_of_append_order(self, tmp_path):
        runs = [("sc-a", 0), ("sc-a", 1), ("sc-b", 0)]
        synthetic_trace(tmp_path / "fwd", runs)
        synthetic_trace(tmp_path / "rev", list(reversed(runs)))
        forward = render_phase_report(collect_summaries(tmp_path / "fwd"))
        backward = render_phase_report(collect_summaries(tmp_path / "rev"))
        assert forward == backward

    def test_default_report_has_no_wall_columns(self, tmp_path):
        synthetic_trace(tmp_path, [("sc", 0)])
        summaries = collect_summaries(tmp_path)
        plain = render_phase_report(summaries)
        assert "Wall s" not in plain
        assert "Nominal s" in plain
        walled = render_phase_report(summaries, wall=True)
        assert "Wall s" in walled

    def test_cli_writes_report(self, tmp_path, capsys):
        synthetic_trace(tmp_path / "trace", [("sc", 0)])
        out = tmp_path / "report.md"
        assert obs_main(["report", str(tmp_path / "trace"), "--out", str(out)]) == 0
        assert out.read_text().startswith("# Flight-trace phase report")
        assert str(out) in capsys.readouterr().out

    def test_cli_errors_exit_2(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "missing")]) == 2
        assert "no such trace directory" in capsys.readouterr().err
        empty = tmp_path / "empty"
        empty.mkdir()
        assert obs_main(["report", str(empty)]) == 2
        assert "no *.trace.jsonl files" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# snapshot export + fleet aggregation
# ---------------------------------------------------------------------- #
def fleet_registry(runs, depth, mission_seconds=()):
    registry = MetricsRegistry()
    counter = registry.counter("repro_runs_total", "Completed runs.")
    counter.inc(runs, system="MLS-V1", outcome="success")
    registry.gauge("repro_queue_depth", "Shards queued.").set(depth)
    histogram = registry.histogram(
        "repro_mission_seconds", "Mission wall seconds.", buckets=(0.1, 1.0)
    )
    for seconds in mission_seconds:
        histogram.observe(seconds)
    return registry


class TestMetricsExport:
    def test_flush_writes_one_atomic_snapshot(self, tmp_path):
        from repro.obs.export import MetricsExporter

        registry = fleet_registry(3, 7, (0.5,))
        exporter = MetricsExporter(process="hostA-1-aa", nonce="aa")
        path = exporter.flush(tmp_path, registry=registry)
        assert path is not None
        assert path.parent == tmp_path / "obs" / "metrics"
        data = json.loads(path.read_text())
        assert data["kind"] == "metrics-snapshot"
        assert data["schema"] == 1
        assert data["process"] == "hostA-1-aa"
        assert data["seq"] == 1
        assert "repro_runs_total" in data["metrics"]
        # Re-flush overwrites the same file with a bumped sequence; no
        # temp files survive either flush.
        again = exporter.flush(tmp_path, registry=registry)
        assert again == path
        assert json.loads(path.read_text())["seq"] == 2
        assert sorted(path.parent.iterdir()) == [path]

    def test_flush_is_best_effort(self, tmp_path):
        from repro.obs.export import MetricsExporter

        blocker = tmp_path / "obs"
        blocker.write_text("not a directory")
        exporter = MetricsExporter()
        assert exporter.flush(tmp_path, registry=MetricsRegistry()) is None

    def test_concurrent_flushers_leave_no_torn_temp_files(self, tmp_path):
        from repro.obs.export import MetricsExporter
        from repro.obs.aggregate import snapshot_paths

        registry = fleet_registry(1, 1)
        interval = sys.getswitchinterval()
        # Switch threads as often as possible, so that an unlocked window
        # between taking a seq and replacing the snapshot is hit.
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(40):
                directory = tmp_path / f"attempt-{attempt}"
                exporter = MetricsExporter(process="p", nonce="cc")

                def flush_ten(exporter=exporter, directory=directory):
                    for _ in range(10):
                        exporter.flush(directory, registry=registry)

                threads = [threading.Thread(target=flush_ten) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                paths = snapshot_paths([directory])
                assert len(paths) == 1
                # Only the snapshot remains: every unique temp file was
                # replaced over it, none linger and none match the
                # aggregator's glob.
                assert sorted(
                    p.name for p in (directory / "obs" / "metrics").iterdir()
                ) == [paths[0].name]
                # The last replace carries the last seq: the snapshot on disk
                # never steps back.
                assert json.loads(paths[0].read_text())["seq"] == 80
        finally:
            sys.setswitchinterval(interval)

    def test_merge_is_byte_stable_over_arrival_order(self, tmp_path):
        import itertools

        from repro.obs.export import MetricsExporter
        from repro.obs.aggregate import (
            dedupe_snapshots,
            load_snapshots,
            merge_snapshots,
            render_merged,
        )

        registries = [
            fleet_registry(3, 7, (0.5, 2.0)),
            fleet_registry(2, 9, (0.05,)),
            fleet_registry(5, 1, ()),
        ]
        for index, registry in enumerate(registries):
            MetricsExporter(process=f"host-{index}", nonce=f"n{index}").flush(
                tmp_path, registry=registry
            )
        snapshots = load_snapshots([tmp_path])
        assert len(snapshots) == 3
        rendered = {
            render_merged(merge_snapshots(dedupe_snapshots(list(order))))
            for order in itertools.permutations(snapshots)
        }
        assert len(rendered) == 1
        text = rendered.pop()
        assert 'repro_runs_total{outcome="success",system="MLS-V1"} 10' in text
        assert 'repro_mission_seconds_count 3' in text  # element-wise histogram

    def test_single_process_merge_matches_render_prometheus(self, tmp_path):
        from repro.obs.export import MetricsExporter
        from repro.obs.aggregate import (
            dedupe_snapshots,
            load_snapshots,
            merge_snapshots,
            render_merged,
        )

        registry = fleet_registry(4, 2, (0.3, 0.9, 5.0))
        MetricsExporter(process="solo", nonce="dd").flush(tmp_path, registry=registry)
        merged = render_merged(
            merge_snapshots(dedupe_snapshots(load_snapshots([tmp_path])))
        )
        assert merged == registry.render_prometheus()

    def test_torn_and_foreign_snapshots_are_skipped(self, tmp_path):
        from repro.obs.export import MetricsExporter
        from repro.obs.aggregate import load_snapshots, snapshot_paths

        MetricsExporter(process="ok", nonce="ee").flush(
            tmp_path, registry=fleet_registry(1, 1)
        )
        metrics_dir = tmp_path / "obs" / "metrics"
        (metrics_dir / "999-torn.json").write_text('{"kind": "metrics-sna')
        (metrics_dir / "998-alien.json").write_text('{"kind": "other", "schema": 1}')
        (metrics_dir / ".77-ff-aaaaaa.tmp").write_text("{}")  # mid-flush leftover
        assert len(snapshot_paths([tmp_path])) == 3  # temp file invisible
        snapshots = load_snapshots([tmp_path])
        assert [snapshot.process for snapshot in snapshots] == ["ok"]

    def test_dedupe_keeps_highest_seq_per_process(self, tmp_path):
        from repro.obs.aggregate import Snapshot, dedupe_snapshots

        old = Snapshot(process="w", seq=1, metrics={})
        new = Snapshot(process="w", seq=5, metrics={})
        other = Snapshot(process="x", seq=2, metrics={})
        kept = dedupe_snapshots([new, old, other])
        assert [(snapshot.process, snapshot.seq) for snapshot in kept] == [
            ("w", 5), ("x", 2),
        ]
        assert [snapshot.process for snapshot in
                dedupe_snapshots([new, other], live_process="w")] == ["x"]

    def test_gauge_is_last_writer_wins_counters_sum(self):
        from repro.obs.aggregate import Snapshot, merge_snapshots, render_merged

        def snap(process, seq, depth, runs):
            return Snapshot(process=process, seq=seq, metrics={
                "repro_queue_depth": {
                    "type": "gauge", "help": "d", "series": [[[], depth]],
                },
                "repro_runs_total": {
                    "type": "counter", "help": "r",
                    "series": [[[["system", "S"]], runs]],
                },
            })

        merged = merge_snapshots([snap("a", 3, 11.0, 2.0), snap("b", 2, 44.0, 3.0)])
        text = render_merged(merged)
        assert "repro_queue_depth 11" in text  # seq 3 wrote last
        assert 'repro_runs_total{system="S"} 5' in text

    def test_fleet_render_live_registry_supersedes_own_snapshots(self, tmp_path):
        from repro.obs.export import process_exporter
        from repro.obs.aggregate import fleet_render

        registry = fleet_registry(2, 7)
        exporter = process_exporter()
        exporter.flush(tmp_path, registry=registry)
        # The live registry moves on; a scrape must reflect it, not the
        # stale disk copy this same process flushed earlier.
        registry.counter("repro_runs_total", "Completed runs.").inc(
            1, system="MLS-V1", outcome="success"
        )
        text = fleet_render([tmp_path], registry=registry)
        assert 'repro_runs_total{outcome="success",system="MLS-V1"} 3' in text
        # A genuinely foreign snapshot still joins the merge.
        from repro.obs.export import MetricsExporter

        MetricsExporter(process="foreign", nonce="gg").flush(
            tmp_path, registry=fleet_registry(10, 1)
        )
        text = fleet_render([tmp_path], registry=registry)
        assert 'repro_runs_total{outcome="success",system="MLS-V1"} 13' in text


# ---------------------------------------------------------------------- #
# correlation IDs
# ---------------------------------------------------------------------- #
class TestCorrelation:
    def test_campaign_correlate_threads_ids_to_jobs(self):
        campaign = short_campaign().correlate(job="abc123", shard="shard-00")
        job = campaign.jobs()[0]
        assert job.correlation == (("job", "abc123"), ("shard", "shard-00"))
        assert campaign.correlate().jobs()[0].correlation == ()

    def test_job_correlation_includes_probe_env(self, monkeypatch):
        from repro.bench.campaign import _job_correlation

        campaign = short_campaign().correlate(job="abc123")
        job = campaign.jobs()[0]
        monkeypatch.delenv("REPRO_CORR_PROBE", raising=False)
        assert _job_correlation(job) == {"job": "abc123"}
        monkeypatch.setenv("REPRO_CORR_PROBE", "deadbeef00")
        assert _job_correlation(job) == {"job": "abc123", "probe": "deadbeef00"}

    def test_trace_summary_carries_corr_only_when_given(self, tmp_path):
        recorder = FlightRecorder()
        recorder.charge_nominal(0.01, 0.0, 0.0)
        append_trace_summary(
            tmp_path / "plain", recorder, system="S", scenario_id="sc",
            repetition=0,
        )
        append_trace_summary(
            tmp_path / "tagged", recorder, system="S", scenario_id="sc",
            repetition=0, correlation={"job": "abc", "shard": "shard-01"},
        )
        plain = next(iter_trace_summaries(tmp_path / "plain" / "S.trace.jsonl"))
        tagged = next(iter_trace_summaries(tmp_path / "tagged" / "S.trace.jsonl"))
        assert "corr" not in plain
        assert tagged["corr"] == {"job": "abc", "shard": "shard-01"}

    def test_correlated_run_labels_metrics(self, tmp_path):
        METRICS.reset()
        try:
            short_campaign().correlate(job="abc123", shard="shard-00").out(
                tmp_path / "out"
            ).run()
            runs = METRICS.snapshot()["repro_runs_total"]
            assert sum(runs.values()) == 1
            (key,) = runs
            assert 'job="abc123"' in key and 'shard="shard-00"' in key
        finally:
            METRICS.reset()

    def test_dispatched_traces_carry_job_and_shard_ids(self, tmp_path, monkeypatch):
        from repro.core.config import mls_v1
        from repro.core.mission import MissionConfig
        from repro.dispatch.planner import plan_dispatch
        from repro.dispatch.worker import run_worker
        from repro.world.scenario_gen import generate_suite

        directory = tmp_path / "dispatch"
        plan_dispatch(
            directory, generate_suite("smoke", count=1, seed=3), [mls_v1()],
            shards=1, mission=MissionConfig(max_mission_time=8.0),
        )
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "trace"))
        run_worker(directory, worker_id="w0", wait=False)
        summaries = collect_summaries(tmp_path / "trace")
        assert summaries, "dispatched runs should be traced"
        for summary in summaries:
            assert set(summary["corr"]) == {"job", "shard"}
            assert summary["corr"]["shard"] == "shard-0000"
            assert len(summary["corr"]["job"]) == 10
        # ... and the worker flushed its metric snapshot under the
        # dispatch dir for fleet aggregation.
        from repro.obs.aggregate import load_snapshots

        snapshots = load_snapshots([directory])
        assert snapshots, "worker run loop should flush metric snapshots"


# ---------------------------------------------------------------------- #
# phase comparison (obs compare)
# ---------------------------------------------------------------------- #
def timed_trace(directory, walls, system="MLS-V3", nominal=0.01):
    """Trace dir with one summary per entry of ``walls``: {phase: seconds}."""
    for repetition, spans in enumerate(walls):
        recorder = FlightRecorder()
        for phase, seconds in spans.items():
            recorder.span_counts[phase] = 1
            recorder.span_seconds[phase] = seconds
        recorder.charge_nominal(nominal, 0.0, 0.0)
        append_trace_summary(
            directory, recorder, system=system, scenario_id="sc",
            repetition=repetition,
        )


class TestCompare:
    def test_self_compare_flags_nothing(self, tmp_path, capsys):
        walls = [{"detect": 0.010 + 0.001 * i, "plan": 0.02} for i in range(5)]
        timed_trace(tmp_path / "a", walls)
        assert obs_main(["compare", str(tmp_path / "a"), str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "REGRESSED" not in out
        assert "No significant phase-level shift" in out

    def test_regression_flags_the_slow_phase_and_exits_1(self, tmp_path, capsys):
        base = [{"detect": 0.010 + 0.0005 * i, "plan": 0.020} for i in range(6)]
        slow = [{"detect": 0.100 + 0.0005 * i, "plan": 0.020} for i in range(6)]
        timed_trace(tmp_path / "a", base)
        timed_trace(tmp_path / "b", slow)
        assert obs_main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        out = capsys.readouterr().out
        assert "MLS-V3/detect" in out
        assert "1 phase(s) significantly slower" in out

    def test_improvement_is_reported_not_fatal(self, tmp_path, capsys):
        slow = [{"detect": 0.100 + 0.0005 * i} for i in range(6)]
        fast = [{"detect": 0.010 + 0.0005 * i} for i in range(6)]
        timed_trace(tmp_path / "a", slow)
        timed_trace(tmp_path / "b", fast)
        assert obs_main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "significantly faster" in capsys.readouterr().out

    def test_phase_missing_on_one_side_is_na(self, tmp_path):
        from repro.obs.compare import compare_phases

        timed_trace(tmp_path / "a", [{"detect": 0.01}])
        timed_trace(tmp_path / "b", [{"detect": 0.01, "harness": 0.5}])
        comparisons = compare_phases(
            collect_summaries(tmp_path / "a"), collect_summaries(tmp_path / "b")
        )
        by_phase = {c.phase: c for c in comparisons}
        assert by_phase["harness"].verdict == "n/a"
        assert not by_phase["harness"].regressed

    def test_nominal_metric_is_deterministic(self, tmp_path):
        from repro.obs.compare import compare_phases

        timed_trace(tmp_path / "a", [{"detect": 0.5}] * 4, nominal=0.010)
        timed_trace(tmp_path / "b", [{"detect": 0.001}] * 4, nominal=0.030)
        comparisons = compare_phases(
            collect_summaries(tmp_path / "a"), collect_summaries(tmp_path / "b"),
            metric="nominal",
        )
        detect = next(c for c in comparisons if c.phase == "detect")
        # Identical samples per side: the CI collapses to the exact diff.
        assert detect.regressed
        assert detect.ci_low == pytest.approx(0.02)
        assert detect.ci_high == pytest.approx(0.02)

    def test_compare_cli_errors_exit_2(self, tmp_path, capsys):
        timed_trace(tmp_path / "a", [{"detect": 0.01}])
        assert obs_main(
            ["compare", str(tmp_path / "a"), str(tmp_path / "missing")]
        ) == 2
        assert "no such trace directory" in capsys.readouterr().err

    def test_compare_writes_out_file(self, tmp_path, capsys):
        timed_trace(tmp_path / "a", [{"detect": 0.01}] * 3)
        out = tmp_path / "cmp.md"
        assert obs_main(
            ["compare", str(tmp_path / "a"), str(tmp_path / "a"),
             "--out", str(out)]
        ) == 0
        assert out.read_text().startswith("# Flight-trace phase comparison")


class TestReportCLI:
    def test_header_only_traces_exit_1(self, tmp_path, capsys):
        from repro.obs.trace import _ensure_header

        _ensure_header(tmp_path / "MLS-V1.trace.jsonl", "MLS-V1")
        assert obs_main(["report", str(tmp_path)]) == 1
        assert "no trace summaries" in capsys.readouterr().err

    def test_by_shard_groups_on_correlation(self, tmp_path, capsys):
        recorder = FlightRecorder()
        recorder.charge_nominal(0.01, 0.02, 0.0)
        for shard, repetition in (("shard-00", 0), ("shard-00", 1), ("shard-01", 0)):
            append_trace_summary(
                tmp_path, recorder, system="S", scenario_id=f"sc-{repetition}",
                repetition=repetition,
                correlation={"job": "abcdef1234", "shard": shard},
            )
        append_trace_summary(  # uncorrelated runs group under "-"
            tmp_path, recorder, system="S", scenario_id="sc-x", repetition=0
        )
        assert obs_main(["report", str(tmp_path), "--by-shard"]) == 0
        out = capsys.readouterr().out
        assert "# Flight-trace shard report" in out
        assert "shard-00" in out and "shard-01" in out
        assert "abcdef1234" in out
        lines = [line for line in out.splitlines() if "| shard-00 " in line]
        assert len(lines) == 1  # two runs rolled into one group row
