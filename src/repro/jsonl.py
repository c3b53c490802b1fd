"""Shared framing for the repo's JSON-Lines file formats, and the two ways
a persisted file changes on disk.

Every persisted format — scenario suites, campaign results, flight traces,
search curves and bisections — is one header object followed by one payload
object per line.  This module owns the framing rules (blank-line filtering,
empty-file and wrong-kind errors, schema-version gating) so the readers
cannot drift; payload parsing stays with the owning module.

It also owns how every file another process reads, resumes from or merges
reaches the disk:

* **replace** — :func:`atomic_text` writes a unique sibling temp file and
  ``os.replace``-s it over the target, so a reader sees the old bytes or the
  new ones, never a torn mix, and concurrent writers never share a temp
  file.  :func:`write_json_atomic`, :func:`write_jsonl_frame` and the
  campaign-result writer sit on top of it; :func:`atomic_bytes` is the same
  replace for the one binary file, the detector network's weight cache.
* **append** — :func:`append_framed` creates a framed file's header
  atomically (temp file + ``link``) and appends one line on an ``O_APPEND``
  descriptor, so any number of processes can grow one file and a killed one
  leaves at worst a torn final line, which the readers drop.

Deliberately import-free of the rest of the package: it is imported from
both :mod:`repro.core.metrics` and :mod:`repro.world.scenario_suite`.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import re
import uuid
import warnings
from pathlib import Path
from typing import IO, Any, Callable, ContextManager, Iterable, Iterator, TypeVar

T = TypeVar("T")


def sha16_of_json(payload: Any) -> str:
    """16-hex-char sha256 of a payload's canonical JSON encoding.

    The one content-hash helper behind every fingerprint in the repo —
    campaign contexts, dispatch plans/shards, fault specs — so the canonical
    encoding (sorted keys, compact separators) can never drift between the
    subsystems that cross-check each other's hashes.
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def file_stem(name: str) -> str:
    """``name`` made safe as a filename stem (runs of other characters -> ``_``).

    The one slug behind every per-system file: campaign results
    (``<stem>.jsonl``) and flight traces (``<stem>.trace.jsonl``).
    """
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _temp_sibling(path: Path) -> Path:
    """A unique temp name next to ``path``: ``<name>.tmp-<hex>``.

    It matches none of the readers' globs (``*.json``, ``*.jsonl``).
    """
    return path.with_name(f"{path.name}.tmp-{uuid.uuid4().hex[:8]}")


@contextlib.contextmanager
def _replace(path: str | Path, mode: str, encoding: str | None) -> Iterator[IO[Any]]:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _temp_sibling(path)
    try:
        with tmp.open(mode, encoding=encoding) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # never mask the original error
            tmp.unlink(missing_ok=True)
        raise


def atomic_text(path: str | Path) -> ContextManager[IO[str]]:
    """Replace ``path`` with the text written inside the block.

    The block writes to a unique sibling temp file, which is ``os.replace``-d
    over ``path`` when the block exits cleanly.  On any exception —
    ``KeyboardInterrupt`` included — the temp file is removed and ``path``
    keeps its old bytes, so an interrupted writer never loses what was there.
    """
    return _replace(path, "w", "utf-8")


def atomic_bytes(path: str | Path) -> ContextManager[IO[bytes]]:
    """:func:`atomic_text` for bytes: replace ``path`` whole, or not at all."""
    return _replace(path, "wb", None)


def write_json_atomic(
    path: str | Path, payload: dict[str, Any], *, indent: int | None = None
) -> None:
    """Replace ``path`` with ``payload`` as deterministic (sorted-key) JSON.

    The one JSON-object writer: dispatch plans, manifests, leases and
    completion markers, service jobs, metric snapshots and fault plans.
    """
    with atomic_text(path) as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=indent) + "\n")


def write_jsonl_frame(path: str | Path, header: dict[str, Any], rows: Iterable[Any]) -> Path:
    """Replace ``path`` with ``header`` then one line per row; return the path.

    Sorted keys and compact separators make the bytes a pure function of
    the contents, which is what lets CI ``cmp`` these files.  Campaign-result
    files use default separators (:func:`repro.core.metrics.write_campaign_jsonl`).
    """
    with atomic_text(path) as handle:
        for payload in itertools.chain([header], rows):
            handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return Path(path)


def append_framed(path: str | Path, header: dict[str, Any], payload: dict[str, Any]) -> Path:
    """Append ``payload`` as one sorted-key JSON line, creating the file with
    ``header`` first; return the path.

    The header is written to a unique temp file and ``link``-ed into place:
    concurrent appenders either find the complete header on disk or race to
    create it, and the loser discards its temp file, so no appender ever
    sees (or appends to) a headerless file.  The line goes out on an
    ``O_APPEND`` descriptor, so appends from many processes interleave at
    line granularity only.
    """
    path = Path(path)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = _temp_sibling(path)
        tmp.write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8")
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass  # another appender won the race; its header is identical
        finally:
            tmp.unlink()
    line = memoryview((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        while line:
            line = line[os.write(fd, line):]
    finally:
        os.close(fd)
    return path


def validate_frame_header(
    path: str | Path, header: dict[str, Any], expected_kind: str, max_schema: int
) -> None:
    """Enforce the kind/schema gate on an already-parsed header object.

    Shared by the materialising reader below, the streaming reader and the
    callers that read a header before streaming its records, so the gating
    rules cannot drift between them.
    Raises ``ValueError`` when the header is of a different kind or declares
    a schema version newer than ``max_schema`` (old readers fail loudly
    instead of misparsing future records).
    """
    if header.get("kind") != expected_kind:
        raise ValueError(
            f"{path} is not a {expected_kind} JSONL file (kind={header.get('kind')!r})"
        )
    schema = int(header.get("schema", 1))
    if schema > max_schema:
        raise ValueError(
            f"{path} uses {expected_kind} schema {schema}, but this version "
            f"reads at most schema {max_schema}; upgrade to read it"
        )


def read_jsonl_frame(
    path: str | Path, expected_kind: str, max_schema: int
) -> tuple[dict[str, Any], list[str]]:
    """Read a JSONL file's header and raw payload lines.

    Raises ``ValueError`` when the file is empty or fails
    :func:`validate_frame_header`.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = json.loads(lines[0])
    validate_frame_header(path, header, expected_kind, max_schema)
    return header, lines[1:]


def read_frame_header(path: str | Path) -> dict[str, Any]:
    """The header object of a framed JSONL file (first non-blank line only)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                return json.loads(line)
    raise ValueError(f"{path} is empty")


def iter_frame_records(
    path: str | Path,
    expected_kind: str,
    max_schema: int,
    parse: Callable[[str], T],
    *,
    description: str = "record",
    skip_header_validation: bool = False,
    on_torn_tail: Callable[[Exception], None] | None = None,
) -> Iterator[T]:
    """Yield ``parse(line)`` for each payload line, one at a time.

    This is the one torn-tail-tolerant line-stream reader, behind
    :func:`repro.core.metrics.iter_result_records` and the trace reader:
    a malformed *final* line — the leftover of
    a process killed mid-append — is dropped with a warning (and reported to
    ``on_torn_tail`` when given), while a malformed line anywhere earlier
    raises.  The look-ahead works by holding each parse failure until the
    next non-blank line proves it was not the tail.

    ``skip_header_validation=True`` skips re-parsing the header line for
    callers that already read it (the header is still consumed, never
    yielded); ``parse`` failures are recognised as ``ValueError`` /
    ``KeyError`` / ``TypeError``.
    """
    path = Path(path)
    pending_error: Exception | None = None
    pending_line = ""
    pending_lineno = 0
    with path.open("r", encoding="utf-8") as handle:
        header_seen = False
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            if not header_seen:
                if not skip_header_validation:
                    validate_frame_header(path, json.loads(line), expected_kind, max_schema)
                header_seen = True
                continue
            if pending_error is not None:
                raise ValueError(
                    f"{path}:{pending_lineno}: malformed {description} "
                    f"{pending_line!r}: {pending_error}"
                ) from pending_error
            try:
                yield parse(line)
            except (ValueError, KeyError, TypeError) as error:
                pending_error = error
                pending_line = line.strip()[:80]
                pending_lineno = lineno
        if not header_seen:
            raise ValueError(f"{path} is empty")
    if pending_error is not None:
        warnings.warn(
            f"dropping torn trailing record in {path} "
            f"(campaign killed mid-append?): {pending_error}",
            RuntimeWarning,
            stacklevel=2,
        )
        if on_torn_tail is not None:
            on_torn_tail(pending_error)


def read_frame_page(
    path: str | Path,
    expected_kind: str,
    max_schema: int,
    parse: Callable[[str], T],
    *,
    offset: int = 0,
    limit: int | None = None,
    description: str = "record",
) -> tuple[dict[str, Any], list[T], int]:
    """One page of a framed JSONL file: ``(header, records, total)``.

    The pagination primitive behind the campaign service's
    ``GET /jobs/{id}/records`` endpoint: streams the file once, parses only
    the ``[offset, offset + limit)`` slice of its records, and counts the
    rest, so paging through a large campaign never materialises it.  Torn
    trailing records are dropped (the :func:`iter_frame_records` policy) and
    are not counted in ``total``; an ``offset`` at or past the end yields an
    empty page with the true total.
    """
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    header = read_frame_header(path)
    validate_frame_header(path, header, expected_kind, max_schema)
    stop = None if limit is None else offset + limit
    page: list[T] = []
    total = 0
    counter = itertools.count()

    def parse_in_window(line: str) -> T | None:
        index = next(counter)
        # Parse every line (a malformed line must still be recognised as the
        # torn tail wherever it falls), but keep only the requested window.
        parsed = parse(line)
        if index >= offset and (stop is None or index < stop):
            return parsed
        return None

    for item in iter_frame_records(
        path,
        expected_kind,
        max_schema,
        parse_in_window,
        description=description,
        skip_header_validation=True,
    ):
        total += 1
        if item is not None:
            page.append(item)
    return header, page, total
