"""``python -m repro.scenarios run``: one command for every campaign flight.

Mission execution is stubbed, so these tests pin how the command builds its
``Campaign`` chain (platform, fault axis, execution mode), not the flights.
"""

import pytest

import repro.bench.campaign as campaign_module
from repro.core.metrics import RunOutcome, RunRecord
from repro.faults.spec import FAULT_PRESETS
from repro.scenarios import main as scenarios_main

SMOKE = ["run", "--preset", "smoke", "--count", "3", "--seed", "3", "--systems", "mls-v1"]


@pytest.fixture
def flown(monkeypatch):
    """Replace mission execution with a record factory; returns the jobs."""
    jobs = []

    def fake_execute(job):
        jobs.append(job)
        return RunRecord(
            scenario_id=job.scenario.scenario_id,
            system_name=job.system.name,
            outcome=RunOutcome.SUCCESS,
            landing_error=0.1 * len(job.faults),
            repetition=job.repetition,
        )

    monkeypatch.setattr(campaign_module, "_execute_job", fake_execute)
    monkeypatch.setattr(campaign_module, "_shared_network", lambda: None)
    return jobs


def test_dispatch_merges_the_bytes_a_serial_run_writes(tmp_path, flown, capsys):
    serial, queue = tmp_path / "serial", tmp_path / "queue"
    assert scenarios_main([*SMOKE, "--faults", "smoke", "--out", str(serial)]) == 0
    assert "Fault-injection coverage" in capsys.readouterr().out
    assert len(flown) == 3
    assert scenarios_main(
        [*SMOKE, "--faults", "smoke", "--dispatch", str(queue), "--shards", "2"]
    ) == 0
    assert "Fault-injection coverage" in capsys.readouterr().out
    assert len(flown) == 6
    assert all(job.faults == FAULT_PRESETS["smoke"] for job in flown)
    assert sorted(path.name for path in (queue / "shards").iterdir()) == [
        "shard-0000", "shard-0001",
    ]
    merged = (queue / "merged" / "MLS-V1.jsonl").read_bytes()
    assert merged == (serial / "MLS-V1.jsonl").read_bytes()


def test_dispatch_verbose_prints_one_line_per_run(tmp_path, flown, capsys):
    queue = tmp_path / "queue"
    assert scenarios_main(
        [*SMOKE, "--dispatch", str(queue), "--shards", "1", "--verbose"]
    ) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if " rep0: " in line]
    assert len(lines) == len(flown) == 3


def test_platform_reaches_every_job(flown):
    assert scenarios_main([*SMOKE, "--platform", "field"]) == 0
    assert len(flown) == 3
    assert {job.platform for job in flown} == {"field"}


def test_dispatch_with_out_exits_2(tmp_path, flown, capsys):
    queue, out = tmp_path / "queue", tmp_path / "out"
    assert scenarios_main([*SMOKE, "--dispatch", str(queue), "--out", str(out)]) == 2
    assert "--dispatch" in capsys.readouterr().err
    assert not flown
    assert not queue.exists() and not out.exists()


def test_generate_out_writes_the_suite_and_export_is_gone(tmp_path, capsys):
    from repro.world.scenario_gen import generate_suite

    path = tmp_path / "suite.jsonl"
    assert scenarios_main(
        ["generate", "--preset", "smoke", "--count", "3", "--seed", "7", "--out", str(path)]
    ) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    expected = generate_suite("smoke", count=3, seed=7).to_jsonl(tmp_path / "expected.jsonl")
    assert path.read_bytes() == expected.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        scenarios_main(["export", "--preset", "smoke", "--out", str(path)])
    assert exit_info.value.code == 2
