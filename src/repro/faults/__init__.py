"""Deterministic fault injection and failure-mode analysis.

The fault axis multiplies the scenario space: every campaign the repo can
already run — serial, ``.parallel()``, sharded ``dispatch`` — can also run
with component-level faults injected at the sensor→system and
system→autopilot boundaries, and every persisted record then carries what
was injected and how the run classified.

Quickstart::

    from repro import Campaign, FaultSpec, mls_v3

    results = (
        Campaign(mls_v3())
        .suite("smoke")
        .faults("sensor", FaultSpec(target="planning", mode="timeout"))
        .run()
    )

    from repro.faults import accumulate_coverage, render_coverage_report
    report = render_coverage_report(
        accumulate_coverage(r for c in results.values() for r in c.records)
    )

CLI: ``python -m repro.faults`` (``list`` / ``describe`` / ``coverage`` /
``sweep`` / ``bisect``); a fault campaign flies through
``python -m repro.scenarios run --faults ...``.
"""

from repro.faults.classifier import (
    FAILURE_MODE_ORDER,
    FailureMode,
    classify_record,
    failure_mode_label,
)
from repro.faults.spec import (
    FAULT_MODES,
    FAULT_PRESETS,
    FaultSpec,
    dump_fault_plan,
    fault_rng,
    fault_run_seed,
    load_fault_plan,
    resolve_faults,
)

#: Names served lazily (PEP 562): the harness and coverage modules import
#: the perception/planning/bench stacks, which themselves import
#: :mod:`repro.faults.spec` — eager imports here would close that cycle.
#: Specs and the classifier stay eager (they only need numpy and
#: ``repro.core.metrics``).
_LAZY_EXPORTS = {
    "FaultHarness": ("repro.faults.harness", "FaultHarness"),
    "FaultyDetector": ("repro.faults.harness", "FaultyDetector"),
    "FaultyPlanner": ("repro.faults.harness", "FaultyPlanner"),
    "CoverageReport": ("repro.faults.coverage", "CoverageReport"),
    "FaultCoverage": ("repro.faults.coverage", "FaultCoverage"),
    "accumulate_coverage": ("repro.faults.coverage", "accumulate_coverage"),
    "render_coverage_report": ("repro.faults.coverage", "render_coverage_report"),
    "render_coverage_section": ("repro.faults.coverage", "render_coverage_section"),
    # Fault-space search engine (sweeps + severity bisection); lazy for the
    # same reason as the harness: the backends pull in the dispatch/bench
    # stacks.
    "DispatchProbeBackend": ("repro.faults.search", "DispatchProbeBackend"),
    "Probe": ("repro.faults.search", "Probe"),
    "CurvePoint": ("repro.faults.search", "CurvePoint"),
    "BisectionResult": ("repro.faults.search", "BisectionResult"),
    "bisect_severity": ("repro.faults.search", "bisect_severity"),
    "run_sweep": ("repro.faults.search", "run_sweep"),
    "severity_ladder": ("repro.faults.search", "severity_ladder"),
}


def __getattr__(name: str):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target[0]), target[1])
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))

__all__ = [
    "FAILURE_MODE_ORDER",
    "FAULT_MODES",
    "FAULT_PRESETS",
    "BisectionResult",
    "CoverageReport",
    "CurvePoint",
    "DispatchProbeBackend",
    "Probe",
    "FailureMode",
    "FaultCoverage",
    "FaultHarness",
    "FaultSpec",
    "FaultyDetector",
    "FaultyPlanner",
    "accumulate_coverage",
    "bisect_severity",
    "classify_record",
    "dump_fault_plan",
    "failure_mode_label",
    "fault_rng",
    "fault_run_seed",
    "load_fault_plan",
    "render_coverage_report",
    "render_coverage_section",
    "resolve_faults",
    "run_sweep",
    "severity_ladder",
]
