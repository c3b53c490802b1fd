"""Failure-mode taxonomy: classify what a run *meant*, not just its outcome.

The paper's three outcome columns (success / collision / poor landing) say
what happened; a dependability analysis also needs to know whether the
system *noticed* trouble and failed safe.  This module maps every
:class:`~repro.core.metrics.RunRecord` onto the five-way taxonomy

==================  ====================================================
mode                meaning
==================  ====================================================
``nominal``         clean success: no fault felt, no aborts, no fallbacks
``degraded-success``  landed on the pad despite injected faults or aborts
``safe-failsafe``   the run ended airborne and intact: failsafe return,
                    search/validation give-up, or mission timeout
``unsafe-landing``  touched down, but off the pad or on invalid ground
``crash``           collided with an obstacle
==================  ====================================================

Classification reads only the record (outcome, failsafe fields, counters
and persisted fault metadata), so it works identically on live results and
JSONL loaded from disk — including schema-1 files written before these
fields existed.
"""

from __future__ import annotations

import enum

from repro.core.metrics import RunOutcome, RunRecord


class FailureMode(enum.Enum):
    """The five-way dependability classification of one run."""

    NOMINAL = "nominal"
    DEGRADED_SUCCESS = "degraded-success"
    SAFE_FAILSAFE = "safe-failsafe"
    UNSAFE_LANDING = "unsafe-landing"
    CRASH = "crash"


#: Stable rendering order for reports (best to worst).
FAILURE_MODE_ORDER: tuple[str, ...] = tuple(mode.value for mode in FailureMode)


def activated_faults(record: RunRecord) -> list[dict]:
    """The injected-fault entries that actually became active during a run."""
    return [fault for fault in record.injected_faults if fault.get("activated")]


def classify_record(record: RunRecord) -> FailureMode:
    """Map one run record onto the failure-mode taxonomy.

    ``crash`` and ``unsafe-landing`` are ground-truth judgements the mission
    runner already made (collision monitoring, landing-point validity);
    the nominal/degraded split additionally looks at whether the system was
    stressed — injected faults that activated, aborts, planner failures —
    on its way to success.
    """
    if record.collided or record.outcome is RunOutcome.COLLISION:
        return FailureMode.CRASH
    if record.outcome is RunOutcome.SUCCESS:
        stressed = (
            bool(activated_faults(record))
            or record.aborts > 0
            or record.planner_failures > 0
        )
        return FailureMode.DEGRADED_SUCCESS if stressed else FailureMode.NOMINAL
    # Outcome is POOR_LANDING: the paper's catch-all. Split it on whether
    # the vehicle actually touched down somewhere it should not have.
    if record.landed:
        return FailureMode.UNSAFE_LANDING
    return FailureMode.SAFE_FAILSAFE


def failure_mode_label(record: RunRecord) -> str:
    """The persisted failure mode, or the on-the-fly classification.

    Records written by a fault-aware mission runner carry ``failure_mode``;
    older files (schema 1) are classified from their other fields.
    """
    return record.failure_mode or classify_record(record).value

