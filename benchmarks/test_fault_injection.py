"""Fault-injection benches: harness overhead and fault-campaign throughput.

Two questions, both recorded into ``BENCH_results.json``:

* **Injection overhead** — a nominal campaign with a *no-op* fault harness
  attached (every spec armed with probability 0, so the hooks see every
  spec on every tick but never perturb anything) must cost < 5% over the
  same campaign with no fault axis.  Every mission owns a harness, so the
  bare campaign still runs the hooks, on an empty harness; the difference
  is what disarmed specs cost: the detector and planner wrappers and the
  per-target scans.  The hooks sit on the per-tick hot path of every fault
  campaign, so this is the number that must not regress.
* **Fault-campaign throughput** — runs/sec of a real fault campaign (the
  ``smoke`` fault preset), for the perf trajectory.

The overhead is the median, over a few rounds, of the CPU-time ratio of the
two campaigns run through the ``lockstep`` fixture: each in its own process,
taking turns on the CPU every few milliseconds, so both see the same host.
Timed one after the other, the two campaigns differ by more than 5% on a
shared runner from host noise alone.
"""

import statistics
import time

from repro.bench.campaign import Campaign
from repro.core.config import mls_v1
from repro.core.mission import MissionConfig
from repro.faults.spec import FAULT_MODES, FaultSpec
from repro.world.scenario_gen import generate_suite

SUITE_PRESET = "smoke"
SUITE_COUNT = 2
SUITE_SEED = 7
#: Lockstep rounds behind the overhead median.
ROUNDS = 5
#: Bounded missions keep a round at a few seconds without changing the
#: per-tick hook cost being measured.
MISSION = MissionConfig(max_mission_time=60.0)

#: One disarmed spec per target: every hook MLS-V1 flies through
#: (filter_frame, filter_estimate, wrappers, corrupt_mapping, filter_command,
#: adjust_timings) scans a spec while probability=0 keeps all of them
#: no-ops — the harness tax with none of the fault effects.  filter_cloud
#: does not run in either campaign: MLS-V1 maps no clouds, so with no depth
#: fault armed neither renders depth.
NOOP_FAULTS = tuple(
    FaultSpec(target=target, mode=modes[0], probability=0.0)
    for target, modes in sorted(FAULT_MODES.items())
)


def _campaign():
    return (
        Campaign(mls_v1())
        .suite(generate_suite(SUITE_PRESET, count=SUITE_COUNT, seed=SUITE_SEED))
        .repetitions(1)
        .mission(MISSION)
    )


def _timed(run):
    start = time.perf_counter()
    results = run()
    return results, time.perf_counter() - start


def test_noop_harness_overhead_under_5_percent(bench_results, lockstep):
    ratios, baseline_cpu, noop_cpu = [], [], []
    for _ in range(ROUNDS):
        (baseline_s, baseline_results), (noop_s, noop_results) = lockstep(
            lambda: _campaign().run(),
            lambda: _campaign().faults(*NOOP_FAULTS).run(),
        )
        ratios.append(noop_s / baseline_s)
        baseline_cpu.append(baseline_s)
        noop_cpu.append(noop_s)

    # A disarmed harness must not change any outcome, only (bounded) cost.
    assert sum(len(result) for result in noop_results.values()) == SUITE_COUNT
    for name, reference in baseline_results.items():
        harnessed = noop_results[name]
        assert [r.outcome for r in harnessed.records] == [
            r.outcome for r in reference.records
        ]
        assert all(len(r.injected_faults) == len(NOOP_FAULTS) for r in harnessed.records)
        assert all(
            not fault["armed"] for r in harnessed.records for fault in r.injected_faults
        )

    overhead = statistics.median(ratios) - 1.0
    bench_results(
        "fault_harness_noop_overhead",
        baseline_cpu_s=statistics.median(baseline_cpu),
        noop_harness_cpu_s=statistics.median(noop_cpu),
        overhead_fraction=overhead,
    )
    assert overhead < 0.05, (
        f"no-op fault harness costs {100.0 * overhead:.1f}% over an empty one "
        f"(median CPU-time ratio of {ROUNDS} lockstep rounds); the injection "
        f"hooks must stay under 5%"
    )


def test_fault_campaign_throughput(bench_results):
    results, elapsed = _timed(_campaign().faults("smoke").run)
    runs = sum(len(result) for result in results.values())
    assert runs == SUITE_COUNT
    bench_results(
        "fault_campaign_smoke",
        runs=float(runs),
        seconds=elapsed,
        runs_per_s=runs / elapsed,
    )
