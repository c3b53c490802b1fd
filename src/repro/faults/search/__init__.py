"""Fault-space search: severity bisection and coverage-vs-severity sweeps.

The search engine explores the fault x scenario x severity space the
injection pillar (:mod:`repro.faults`) opened, without flying the full
grid: every probe point is an ordinary fault campaign ending in
``Campaign.dispatch``, so probes drain through the existing lease-based
queue under any worker topology — and a killed search resumes from the
directory tree to byte-identical curves.  Both probe backends share one
probe memo, so revisited points are never flown twice.

Quickstart::

    from repro.core.config import mls_v3
    from repro.faults import FAULT_PRESETS
    from repro.faults.search import DispatchProbeBackend, run_sweep, severity_ladder
    from repro.world.scenario_gen import generate_suite

    suite = generate_suite("smoke", count=2, seed=7, repetitions=1)
    backend = DispatchProbeBackend("sweep/probes", suite, [mls_v3()])
    result = run_sweep(
        backend, FAULT_PRESETS["smoke"], severity_ladder(5), out_dir="sweep"
    )

CLI: ``python -m repro.faults sweep`` / ``bisect``.
"""

from repro.faults.search.backend import (
    DispatchProbeBackend,
    Probe,
    ProbeOutcome,
    ServiceProbeBackend,
)
from repro.faults.search.bisect import (
    DEFAULT_RESOLUTION,
    BisectionResult,
    bisect_severity,
    read_bisection,
    render_bisection_report,
    write_bisection,
)
from repro.faults.search.curves import (
    SEARCH_SCHEMA_VERSION,
    CurvePoint,
    curve_point,
    read_curve,
    render_sweep_report,
    severity_ladder,
    write_coverage_curve,
    write_failure_mode_curve,
)
from repro.faults.search.sweep import SweepResult, run_sweep, sweep_probes

__all__ = [
    "DEFAULT_RESOLUTION",
    "SEARCH_SCHEMA_VERSION",
    "BisectionResult",
    "CurvePoint",
    "DispatchProbeBackend",
    "Probe",
    "ProbeOutcome",
    "ServiceProbeBackend",
    "SweepResult",
    "bisect_severity",
    "curve_point",
    "read_bisection",
    "read_curve",
    "render_bisection_report",
    "render_sweep_report",
    "run_sweep",
    "severity_ladder",
    "sweep_probes",
    "write_bisection",
    "write_coverage_curve",
    "write_failure_mode_curve",
]
