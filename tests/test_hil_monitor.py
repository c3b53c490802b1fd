"""Edge-case tests for the HIL resource figures (ResourceStats).

Each run's :class:`ResourceStats` collects the CPU, memory and GPU
utilisation the execution platform reports on every decision tick, and
Table III and Fig. 7 read their means and peaks.  These tests pin that
arithmetic across the degenerate shapes a campaign can produce: no samples
at all (a run that fails before the first tick), a single sample, and
samples where peak and mean genuinely diverge.
"""

import pytest

from repro.core.metrics import ResourceStats


def stats(*samples):
    """ResourceStats over ``(cpu, memory_mb, gpu)`` samples."""
    return ResourceStats(
        cpu_utilisation_samples=[cpu for cpu, _, _ in samples],
        memory_mb_samples=[memory for _, memory, _ in samples],
        gpu_utilisation_samples=[gpu for _, _, gpu in samples],
    )


class TestEmptyMonitor:
    def test_no_samples_reports_zeroes_not_errors(self):
        empty = ResourceStats()
        assert empty.cpu_utilisation_samples == []
        assert empty.mean_cpu == 0.0
        assert empty.peak_cpu == 0.0
        assert empty.mean_memory_mb == 0.0
        assert empty.peak_memory_mb == 0.0
        assert empty.mean_gpu == 0.0

    def test_empty_to_stats_round_trips(self):
        restored = ResourceStats.from_dict(ResourceStats().to_dict())
        assert restored == ResourceStats()
        assert restored.mean_cpu == 0.0


class TestSingleSample:
    def test_mean_equals_peak_equals_value(self):
        single = stats((0.62, 2213.0, 0.4))
        assert single.mean_cpu == single.peak_cpu == 0.62
        assert single.mean_memory_mb == single.peak_memory_mb == 2213.0
        assert single.mean_gpu == 0.4


class TestPeakVersusMean:
    def test_peak_tracks_max_not_last(self):
        spiked = stats(
            (0.20, 1000.0, 0.1),
            (0.90, 2900.0, 0.8),  # the spike
            (0.40, 1500.0, 0.3),
        )
        assert spiked.peak_cpu == 0.90
        assert spiked.peak_memory_mb == 2900.0
        assert spiked.mean_cpu == pytest.approx(0.5)
        assert spiked.mean_memory_mb == pytest.approx(1800.0)
        assert spiked.mean_gpu == pytest.approx(0.4)

    def test_to_stats_merge_accumulates_across_runs(self):
        first = stats((0.2, 1000.0, 0.1))
        first.deadline_misses = 1
        second = stats((0.8, 2000.0, 0.9))
        second.deadline_misses = 2
        first.merge(second)
        assert first.mean_cpu == pytest.approx(0.5)
        assert first.peak_memory_mb == 2000.0
        assert first.deadline_misses == 3
