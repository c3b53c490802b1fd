"""Run records and campaign aggregation.

Every mission run yields a :class:`RunRecord`; a :class:`CampaignResult`
aggregates them into the quantities the paper reports:

* Table I / III — successful-landing rate, failure rate due to collision,
  failure rate due to poor landing;
* Table II — marker-detection false-negative rate;
* §V — mean detection deviation, mean landing deviation.
"""

from __future__ import annotations

import enum
import json
import math
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.jsonl import (
    append_framed,
    atomic_text,
    iter_frame_records,
    read_frame_header,
    validate_frame_header,
)

#: ``kind`` of campaign-result JSONL files.
RESULT_KIND = "campaign-result"

#: Schema version stamped into campaign-result JSONL headers.  Version 2
#: added the failsafe fields (``failsafe_action`` / ``failsafe_reason``), the
#: ``failure_mode`` classification and the ``injected_faults`` metadata;
#: readers accept any version up to this one, and records from older files
#: simply leave the new fields at their defaults.
RESULT_SCHEMA_VERSION = 2


class RunOutcome(enum.Enum):
    """Classification of a mission run, matching the paper's three columns."""

    SUCCESS = "success"
    COLLISION = "collision"
    POOR_LANDING = "poor_landing"


@dataclass
class DetectionStats:
    """Frame-level detection bookkeeping for the false-negative rate."""

    frames_with_visible_marker: int = 0
    frames_detected: int = 0
    false_positive_frames: int = 0
    deviation_samples: list[float] = field(default_factory=list)

    @property
    def false_negative_rate(self) -> float:
        """Fraction of marker-visible frames with no detection of that marker."""
        if self.frames_with_visible_marker == 0:
            return 0.0
        misses = self.frames_with_visible_marker - self.frames_detected
        return misses / self.frames_with_visible_marker

    def merge(self, other: "DetectionStats") -> None:
        self.frames_with_visible_marker += other.frames_with_visible_marker
        self.frames_detected += other.frames_detected
        self.false_positive_frames += other.false_positive_frames
        self.deviation_samples.extend(other.deviation_samples)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DetectionStats":
        return cls(**data)


@dataclass
class ResourceStats:
    """Companion-computer utilisation samples (HIL / real-world campaigns)."""

    cpu_utilisation_samples: list[float] = field(default_factory=list)
    memory_mb_samples: list[float] = field(default_factory=list)
    gpu_utilisation_samples: list[float] = field(default_factory=list)
    deadline_misses: int = 0

    @property
    def mean_cpu(self) -> float:
        return statistics.fmean(self.cpu_utilisation_samples) if self.cpu_utilisation_samples else 0.0

    @property
    def peak_cpu(self) -> float:
        return max(self.cpu_utilisation_samples, default=0.0)

    @property
    def peak_memory_mb(self) -> float:
        return max(self.memory_mb_samples) if self.memory_mb_samples else 0.0

    @property
    def mean_memory_mb(self) -> float:
        return statistics.fmean(self.memory_mb_samples) if self.memory_mb_samples else 0.0

    @property
    def mean_gpu(self) -> float:
        return statistics.fmean(self.gpu_utilisation_samples) if self.gpu_utilisation_samples else 0.0

    def merge(self, other: "ResourceStats") -> None:
        self.cpu_utilisation_samples.extend(other.cpu_utilisation_samples)
        self.memory_mb_samples.extend(other.memory_mb_samples)
        self.gpu_utilisation_samples.extend(other.gpu_utilisation_samples)
        self.deadline_misses += other.deadline_misses

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ResourceStats":
        return cls(**data)


@dataclass
class RunRecord:
    """The result of executing one scenario with one system generation."""

    scenario_id: str
    system_name: str
    outcome: RunOutcome
    landing_error: float = float("nan")      # metres from the target marker
    collided: bool = False
    collision_obstacle: str = ""
    landed: bool = False
    mission_time: float = 0.0
    detection: DetectionStats = field(default_factory=DetectionStats)
    resources: ResourceStats = field(default_factory=ResourceStats)
    planner_failures: int = 0
    planner_fallbacks: int = 0
    aborts: int = 0
    adverse_weather: bool = False
    failure_reason: str = ""
    #: The failsafe the system executed (``FailsafeAction.value``), or ``""``
    #: when the run never entered the failsafe state.
    failsafe_action: str = ""
    #: The reason recorded on the transition into the failsafe state.
    failsafe_reason: str = ""
    #: Failure-mode taxonomy label (see :mod:`repro.faults.classifier`);
    #: stamped by fault-aware mission runs, derivable on the fly otherwise.
    failure_mode: str = ""
    #: Per-spec injected-fault metadata (name/target/mode, arming, activation
    #: window, event count) stamped by :class:`repro.faults.FaultHarness`.
    injected_faults: list[dict] = field(default_factory=list)
    repetition: int = 0
    #: Content hash of the scenario this run flew (set by the campaign
    #: persistence layer); guards resumed campaigns against scenario-id
    #: collisions between different suites.
    scenario_fingerprint: str = ""

    @property
    def succeeded(self) -> bool:
        return self.outcome is RunOutcome.SUCCESS

    # ------------------------------------------------------------------ #
    # serialization (JSON-compatible; NaN encodes as null)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["outcome"] = self.outcome.value
        if math.isnan(self.landing_error):
            data["landing_error"] = None
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        data = dict(data)
        data["outcome"] = RunOutcome(data["outcome"])
        if data.get("landing_error") is None:
            data["landing_error"] = float("nan")
        if isinstance(data.get("detection"), dict):
            data["detection"] = DetectionStats.from_dict(data["detection"])
        if isinstance(data.get("resources"), dict):
            data["resources"] = ResourceStats.from_dict(data["resources"])
        return cls(**data)


#: Record-level factor accessors: the grouping labels derivable from a
#: :class:`RunRecord` alone (no scenario join required).  Each accessor
#: returns the tuple of labels the record belongs to — a tuple so that
#: multi-label factors (e.g. the scenario-joined stress axes added by
#: :mod:`repro.analysis.slicing`) share the same shape.
RECORD_FACTORS: dict[str, Callable[[RunRecord], tuple[str, ...]]] = {
    "system": lambda record: (record.system_name,),
    "outcome": lambda record: (record.outcome.value,),
    "weather": lambda record: ("adverse" if record.adverse_weather else "normal",),
    "scenario": lambda record: (record.scenario_id,),
    "repetition": lambda record: (f"rep{record.repetition}",),
    "failure-cause": lambda record: (
        record.failsafe_reason or record.failure_reason or "(none)",
    ),
}


@dataclass
class CampaignResult:
    """Aggregation of many run records for one system generation."""

    system_name: str
    records: list[RunRecord] = field(default_factory=list)

    def add(self, record: RunRecord) -> None:
        if record.system_name != self.system_name:
            raise ValueError(
                f"record for {record.system_name} added to campaign of {self.system_name}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    # Table I / III quantities
    # ------------------------------------------------------------------ #
    def _rate(self, outcome: RunOutcome) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.outcome is outcome) / len(self.records)

    @property
    def success_rate(self) -> float:
        return self._rate(RunOutcome.SUCCESS)

    @property
    def collision_failure_rate(self) -> float:
        return self._rate(RunOutcome.COLLISION)

    @property
    def poor_landing_failure_rate(self) -> float:
        return self._rate(RunOutcome.POOR_LANDING)

    # ------------------------------------------------------------------ #
    # Table II quantities
    # ------------------------------------------------------------------ #
    @property
    def detection_stats(self) -> DetectionStats:
        merged = DetectionStats()
        for record in self.records:
            merged.merge(record.detection)
        return merged

    @property
    def false_negative_rate(self) -> float:
        return self.detection_stats.false_negative_rate

    # ------------------------------------------------------------------ #
    # landing accuracy and resources
    # ------------------------------------------------------------------ #
    @property
    def mean_landing_error(self) -> float:
        errors = [r.landing_error for r in self.records if r.landed and r.landing_error == r.landing_error]
        return statistics.fmean(errors) if errors else float("nan")

    @property
    def success_mean_landing_error(self) -> float:
        """Mean landing error over *successful* landings only.

        §V.C's accuracy quantity: :attr:`mean_landing_error` also averages
        poor landings that touched down metres away (e.g. on a decoy), whose
        outliers swamp the centimetre-scale signal at small campaign sizes.
        """
        errors = [
            r.landing_error
            for r in self.records
            if r.succeeded and r.landing_error == r.landing_error
        ]
        return statistics.fmean(errors) if errors else float("nan")

    @property
    def resource_stats(self) -> ResourceStats:
        merged = ResourceStats()
        for record in self.records:
            merged.merge(record.resources)
        return merged

    # ------------------------------------------------------------------ #
    # persistence (JSON Lines: one header line, then one record per line)
    # ------------------------------------------------------------------ #
    def to_jsonl(self, path: str | Path) -> Path:
        """Write all records as JSONL (header + one line per run) and return the path.

        The format is append-friendly: the campaign runner re-emits records
        one at a time with :func:`append_record_jsonl`, which is what makes
        interrupted campaigns resumable.
        """
        write_campaign_jsonl(path, result_header(self.system_name), self.records)
        return Path(path)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "CampaignResult":
        """Load a result written by :meth:`to_jsonl` (or grown by appends).

        A torn trailing line — the artifact of a campaign killed mid-append —
        is dropped with a warning; a malformed line anywhere else raises.
        """
        header, records, _ = read_campaign_jsonl(path)
        result = cls(system_name=str(header["system"]))
        for record in records:
            result.add(record)
        return result


def result_header(system: str, **context: Any) -> dict[str, Any]:
    """The header object of a campaign-result file holding ``system``'s runs.

    ``context`` adds the run conditions a record cannot carry: a campaign
    writes ``campaign`` (its context fingerprint) and ``platform``, so
    resuming and merging can refuse results flown under other ones.
    """
    return {"kind": RESULT_KIND, "schema": RESULT_SCHEMA_VERSION, "system": system, **context}


def write_campaign_jsonl(
    path: str | Path, header: dict[str, Any], records: Iterable[RunRecord]
) -> Path:
    """Replace a campaign-result JSONL file with ``header`` and ``records``.

    Used for full dumps, for the shard merger's output and to heal a file
    whose trailing record was torn by a mid-append kill.  The file is
    replaced whole (:func:`repro.jsonl.atomic_text`): a writer interrupted
    part-way, or an exception raised by ``records``, leaves the old file.
    """
    with atomic_text(path) as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
    return Path(path)


def parse_record_line(line: str) -> RunRecord:
    """Parse one campaign-result JSONL payload line into a :class:`RunRecord`."""
    return RunRecord.from_dict(json.loads(line))


def iter_result_records(
    path: str | Path,
    *,
    validated: bool = False,
    on_torn_tail: Callable[[Exception], None] | None = None,
) -> Iterator[RunRecord]:
    """Yield a campaign-result file's records one at a time (constant memory).

    The record stream every reader of these files shares: a malformed
    *final* line is dropped with a warning (and reported to
    ``on_torn_tail``), a malformed line anywhere earlier raises (see
    :func:`repro.jsonl.iter_frame_records`).  ``validated=True`` skips
    re-checking the header for callers that already read it.
    """
    return iter_frame_records(
        path,
        RESULT_KIND,
        RESULT_SCHEMA_VERSION,
        parse_record_line,
        description="run record",
        skip_header_validation=validated,
        on_torn_tail=on_torn_tail,
    )


def read_result_header(path: str | Path) -> dict[str, Any]:
    """The header object of a campaign-result file.

    Raises ``ValueError`` when the file is empty, of another kind, or of a
    newer schema than this version reads.
    """
    header = read_frame_header(path)
    validate_frame_header(path, header, RESULT_KIND, RESULT_SCHEMA_VERSION)
    return header


def read_campaign_jsonl(path: str | Path) -> tuple[dict[str, Any], list[RunRecord], bool]:
    """Parse a campaign-result JSONL file into (header, records, torn_tail).

    ``torn_tail`` is True when the file's final line failed to parse — the
    expected leftover of a process killed mid-append — in which case that
    line is dropped with a warning so the campaign can still resume.  A
    malformed header or a malformed line anywhere *before* the tail raises.
    """
    header = read_result_header(path)
    torn_errors: list[Exception] = []
    records = list(
        iter_result_records(path, validated=True, on_torn_tail=torn_errors.append)
    )
    return header, records, bool(torn_errors)


def append_record_jsonl(
    path: str | Path,
    result_system: str,
    record: RunRecord,
    extra_header: dict[str, Any] | None = None,
) -> None:
    """Append one run record to a campaign-result JSONL file.

    Creates the file (with its header line, merged with ``extra_header``) on
    first use; the campaign runner calls this after every completed run so a
    killed campaign loses at most the in-flight missions.
    """
    append_framed(path, result_header(result_system, **(extra_header or {})), record.to_dict())
