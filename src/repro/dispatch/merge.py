"""Merge per-shard campaign outputs back into one result stream.

The merger turns a drained dispatch directory into ``<dir>/merged/`` —
one campaign-result JSONL file per system that is **byte-identical** to what
a single-process ``Campaign.out(dir).run()`` over the same suite would have
written.  That identity is the subsystem's correctness contract (asserted by
the test suite and the CI ``dispatch-smoke`` job), and it holds because:

* missions are deterministic, so a shard's records equal the serial run's
  records for the same (system, scenario, repetition) cells;
* shards are contiguous suite slices, so emitting shard 0..N's records per
  system reproduces the serial submission order; and
* records are re-emitted from the grid, not file order, so duplicated
  appends (a shard finished twice across a lease eviction) collapse.

Every input is verified before a byte is written: shard completion markers,
the campaign context hash of each shard result header (mission config +
platform), and each record's scenario fingerprint against the planned suite.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.bench.campaign import campaign_result_filename
from repro.core.metrics import (
    CampaignResult,
    RunRecord,
    iter_result_records,
    read_result_header,
    result_header,
    write_campaign_jsonl,
)
from repro.dispatch.planner import (
    DispatchPlan,
    ShardSpec,
    load_plan,
    load_suite,
    merged_dir,
    shard_results_dir,
)
from repro.dispatch.queue import ShardQueue


class ShardResultError(ValueError):
    """A shard's persisted output failed merge validation."""


def _shard_records(
    directory: Path,
    plan: DispatchPlan,
    shard: ShardSpec,
    system_name: str,
    expected_fingerprints: dict[str, str],
) -> dict[tuple[str, int], RunRecord]:
    """One shard's validated records for one system, keyed by grid cell."""
    path = shard_results_dir(directory, shard) / campaign_result_filename(system_name)
    if not path.exists():
        raise ShardResultError(
            f"{shard.name} is marked done but {path} is missing"
        )
    header = read_result_header(path)
    if str(header.get("system")) != system_name:
        raise ShardResultError(
            f"{path} holds results for {header.get('system')!r}, not {system_name!r}"
        )
    if header.get("campaign") != plan.context:
        raise ShardResultError(
            f"{path} was flown under a different campaign context "
            f"({header.get('campaign')} != {plan.context}: mission config or "
            f"platform differs from the plan)"
        )
    if header.get("platform") != plan.platform:
        raise ShardResultError(
            f"{path} was flown on platform {header.get('platform')!r}, "
            f"the plan says {plan.platform!r}"
        )
    cells: dict[tuple[str, int], RunRecord] = {}
    expected_ids = set(shard.scenario_ids)
    for record in iter_result_records(path, validated=True):
        if record.scenario_id not in expected_ids:
            raise ShardResultError(
                f"{path} holds a record for {record.scenario_id!r}, which is "
                f"not in {shard.name}'s scenario slice"
            )
        expected = expected_fingerprints[record.scenario_id]
        if record.scenario_fingerprint and record.scenario_fingerprint != expected:
            raise ShardResultError(
                f"{path}: record for {record.scenario_id!r} rep "
                f"{record.repetition} was flown on different scenario contents "
                f"(fingerprint {record.scenario_fingerprint} != {expected})"
            )
        key = (record.scenario_id, record.repetition)
        previous = cells.get(key)
        if previous is not None and previous.to_dict() != record.to_dict():
            raise ShardResultError(
                f"{path} holds two *different* records for {record.scenario_id!r} "
                f"rep {record.repetition}; the shard was flown twice with "
                f"diverging results — refusing to merge"
            )
        cells[key] = record
    return cells


def merge_dispatch(
    directory: str | Path, out_dir: str | Path | None = None
) -> dict[str, Path]:
    """Merge a drained dispatch directory into per-system JSONL files.

    Returns ``{system name: merged file path}``.  Raises
    :class:`ShardResultError` (a ``ValueError``) when a shard is incomplete
    or its persisted output fails validation.
    """
    directory = Path(directory)
    plan = load_plan(directory)
    suite = load_suite(directory, plan)
    queue = ShardQueue(directory, plan)
    unfinished = [
        shard.name for shard in plan.shards if queue.read_done(shard) is None
    ]
    if unfinished:
        raise ShardResultError(
            f"cannot merge {directory}: shard(s) {', '.join(unfinished)} are "
            f"not done yet (run more workers, or `dispatch status` to inspect)"
        )
    expected_fingerprints = {
        scenario.scenario_id: scenario.fingerprint() for scenario in suite
    }

    out = Path(out_dir) if out_dir is not None else merged_dir(directory)
    merged: dict[str, Path] = {}
    for system in plan.systems:
        # Exactly the header and record order a single-process Campaign.out()
        # writes for this campaign context; each merged file is replaced
        # whole, so concurrent merges of one directory cannot tear it.
        merged[system.name] = write_campaign_jsonl(
            out / campaign_result_filename(system.name),
            result_header(system.name, campaign=plan.context, platform=plan.platform),
            _grid_records(directory, plan, system.name, expected_fingerprints),
        )
    return merged


def _grid_records(
    directory: Path,
    plan: DispatchPlan,
    system_name: str,
    expected_fingerprints: dict[str, str],
) -> Iterator[RunRecord]:
    """``system_name``'s records shard by shard, each shard in grid order
    (scenario-major, repetition-minor) — the serial submission order — not
    in file append order."""
    for shard in plan.shards:
        cells = _shard_records(directory, plan, shard, system_name, expected_fingerprints)
        for scenario_id in shard.scenario_ids:
            for repetition in range(plan.repetitions):
                record = cells.pop((scenario_id, repetition), None)
                if record is None:
                    raise ShardResultError(
                        f"{shard.name} is marked done but holds no record for "
                        f"{system_name} / {scenario_id!r} rep {repetition}"
                    )
                yield record
        if cells:
            extras = sorted(f"{sid} rep{rep}" for sid, rep in cells)
            raise ShardResultError(
                f"{shard.name} holds {len(extras)} record(s) outside "
                f"the planned grid for {system_name}: {extras[:5]}"
            )


def ensure_merged(directory: str | Path) -> Path:
    """Merge ``directory`` unless every per-system merged file already
    exists; returns the merged directory.

    Raises :class:`ShardResultError` while shards are outstanding.
    """
    out = merged_dir(directory)
    plan = load_plan(directory)
    if not all((out / campaign_result_filename(s.name)).exists() for s in plan.systems):
        merge_dispatch(directory)
    return out


def load_merged(directory: str | Path) -> dict[str, CampaignResult]:
    """Load a merged dispatch directory as ``{system name: CampaignResult}``.

    The same shape ``Campaign.run()`` returns, in the plan's system order.
    """
    directory = Path(directory)
    plan = load_plan(directory)
    results: dict[str, CampaignResult] = {}
    for system in plan.systems:
        path = merged_dir(directory) / campaign_result_filename(system.name)
        if not path.exists():
            raise FileNotFoundError(
                f"{path} not found: run `python -m repro.dispatch merge` first"
            )
        results[system.name] = CampaignResult.from_jsonl(path)
    return results

