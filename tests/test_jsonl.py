"""Direct unit tests for the shared JSONL framing layer (repro/jsonl.py).

The torn-tail reader and header helpers were previously exercised only
indirectly through the persistence and dispatch suites; these tests pin the
framing contract itself.
"""

from __future__ import annotations

import json
import os
import stat
import threading

import pytest

from repro.jsonl import (
    atomic_text,
    iter_frame_records,
    read_frame_page,
    read_frame_header,
    read_jsonl_frame,
    validate_frame_header,
    write_or_print,
)

KIND = "campaign-result"


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def header_line(kind=KIND, schema=1, **extra):
    return json.dumps({"kind": kind, "schema": schema, **extra})


def parse_payload(line: str) -> dict:
    data = json.loads(line)
    if "value" not in data:
        raise KeyError("value")
    return data


class TestReadFrameHeader:
    def test_reads_first_non_blank_line_only(self, tmp_path):
        path = write_lines(
            tmp_path / "f.jsonl", "", "  ", header_line(system="X"), '{"value": 1}'
        )
        header = read_frame_header(path)
        assert header["system"] == "X"

    def test_empty_file_raises(self, tmp_path):
        path = write_lines(tmp_path / "empty.jsonl")
        with pytest.raises(ValueError, match="is empty"):
            read_frame_header(path)

    def test_whitespace_only_file_raises(self, tmp_path):
        path = write_lines(tmp_path / "blank.jsonl", "   ", "\t")
        with pytest.raises(ValueError, match="is empty"):
            read_frame_header(path)

    def test_does_not_read_past_the_header(self, tmp_path):
        # The second line is malformed JSON; the header read must not care.
        path = write_lines(tmp_path / "f.jsonl", header_line(), "{not json")
        assert read_frame_header(path)["kind"] == KIND


class TestValidateFrameHeader:
    def test_wrong_kind(self, tmp_path):
        with pytest.raises(ValueError, match="not a campaign-result"):
            validate_frame_header("p", {"kind": "scenario-suite"}, KIND, 2)

    def test_newer_schema_refused(self):
        with pytest.raises(ValueError, match="at most schema 2"):
            validate_frame_header("p", {"kind": KIND, "schema": 3}, KIND, 2)

    def test_older_schema_accepted(self):
        validate_frame_header("p", {"kind": KIND, "schema": 1}, KIND, 2)

    def test_missing_schema_defaults_to_1(self):
        validate_frame_header("p", {"kind": KIND}, KIND, 1)


class TestIterFrameRecords:
    def test_yields_parsed_payload_lines(self, tmp_path):
        path = write_lines(
            tmp_path / "f.jsonl", header_line(), '{"value": 1}', '{"value": 2}'
        )
        values = [r["value"] for r in iter_frame_records(path, KIND, 1, parse_payload)]
        assert values == [1, 2]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_lines(
            tmp_path / "f.jsonl", header_line(), "", '{"value": 1}', "   ", '{"value": 2}'
        )
        values = [r["value"] for r in iter_frame_records(path, KIND, 1, parse_payload)]
        assert values == [1, 2]

    def test_torn_tail_dropped_with_warning_and_callback(self, tmp_path):
        path = write_lines(
            tmp_path / "f.jsonl", header_line(), '{"value": 1}', '{"value": 2, "trunca'
        )
        torn: list[Exception] = []
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            values = [
                r["value"]
                for r in iter_frame_records(
                    path, KIND, 1, parse_payload, on_torn_tail=torn.append
                )
            ]
        assert values == [1]
        assert len(torn) == 1

    def test_torn_tail_with_valid_json_but_bad_payload(self, tmp_path):
        # A mid-append kill can also leave a syntactically valid but
        # incomplete object; parse raising KeyError counts as torn too.
        path = write_lines(
            tmp_path / "f.jsonl", header_line(), '{"value": 1}', '{"other": 2}'
        )
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            values = [r["value"] for r in iter_frame_records(path, KIND, 1, parse_payload)]
        assert values == [1]

    def test_malformed_middle_line_raises_with_location(self, tmp_path):
        path = write_lines(
            tmp_path / "f.jsonl", header_line(), "{broken", '{"value": 2}'
        )
        with pytest.raises(ValueError, match=r"f\.jsonl:2: malformed run record"):
            list(iter_frame_records(path, KIND, 1, parse_payload, description="run record"))

    def test_header_only_file_yields_nothing(self, tmp_path):
        path = write_lines(tmp_path / "f.jsonl", header_line())
        assert list(iter_frame_records(path, KIND, 1, parse_payload)) == []

    def test_empty_file_raises(self, tmp_path):
        path = write_lines(tmp_path / "f.jsonl")
        with pytest.raises(ValueError, match="is empty"):
            list(iter_frame_records(path, KIND, 1, parse_payload))

    def test_header_validation_gate(self, tmp_path):
        path = write_lines(
            tmp_path / "f.jsonl", header_line(kind="scenario-suite"), '{"value": 1}'
        )
        with pytest.raises(ValueError, match="not a campaign-result"):
            list(iter_frame_records(path, KIND, 1, parse_payload))

    def test_skip_header_validation_still_consumes_header(self, tmp_path):
        # Callers that already read the header get payload lines only, even
        # when the header would fail validation.
        path = write_lines(
            tmp_path / "f.jsonl", header_line(kind="scenario-suite"), '{"value": 9}'
        )
        values = [
            r["value"]
            for r in iter_frame_records(
                path, KIND, 1, parse_payload, skip_header_validation=True
            )
        ]
        assert values == [9]

    def test_streaming_is_lazy(self, tmp_path):
        path = write_lines(
            tmp_path / "f.jsonl", header_line(), '{"value": 1}', "{broken", '{"value": 2}'
        )
        iterator = iter_frame_records(path, KIND, 1, parse_payload)
        assert next(iterator)["value"] == 1  # the bad line is not reached yet
        with pytest.raises(ValueError, match="malformed"):
            list(iterator)


class TestReadJsonlFrame:
    def test_returns_header_and_raw_payload_lines(self, tmp_path):
        path = write_lines(
            tmp_path / "f.jsonl", header_line(count=2), '{"value": 1}', '{"value": 2}'
        )
        header, lines = read_jsonl_frame(path, KIND, 1)
        assert header["count"] == 2
        assert [json.loads(line)["value"] for line in lines] == [1, 2]


class TestReadFramePage:
    def file(self, tmp_path, count=5):
        lines = [header_line()] + [json.dumps({"value": i}) for i in range(count)]
        return write_lines(tmp_path / "page.jsonl", *lines)

    def test_window_and_total(self, tmp_path):
        path = self.file(tmp_path)
        header, page, total = read_frame_page(
            path, KIND, 1, parse_payload, offset=1, limit=2
        )
        assert header["kind"] == KIND
        assert [r["value"] for r in page] == [1, 2]
        assert total == 5

    def test_no_limit_reads_to_end(self, tmp_path):
        _, page, total = read_frame_page(
            self.file(tmp_path), KIND, 1, parse_payload, offset=3
        )
        assert [r["value"] for r in page] == [3, 4]
        assert total == 5

    def test_offset_past_end_is_empty_with_true_total(self, tmp_path):
        _, page, total = read_frame_page(
            self.file(tmp_path), KIND, 1, parse_payload, offset=99, limit=10
        )
        assert page == []
        assert total == 5

    def test_limit_zero_counts_without_materialising(self, tmp_path):
        _, page, total = read_frame_page(
            self.file(tmp_path), KIND, 1, parse_payload, limit=0
        )
        assert page == []
        assert total == 5

    def test_torn_tail_dropped_and_not_counted(self, tmp_path):
        path = self.file(tmp_path, count=3)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        with pytest.warns(RuntimeWarning, match="torn"):
            _, page, total = read_frame_page(path, KIND, 1, parse_payload, limit=10)
        assert [r["value"] for r in page] == [0, 1, 2]
        assert total == 3

    def test_malformed_middle_line_still_raises(self, tmp_path):
        path = write_lines(
            tmp_path / "bad.jsonl", header_line(),
            '{"value": 0}', "not json", '{"value": 2}',
        )
        with pytest.raises(ValueError, match="malformed"):
            read_frame_page(path, KIND, 1, parse_payload)

    def test_negative_offset_or_limit_rejected(self, tmp_path):
        path = self.file(tmp_path)
        with pytest.raises(ValueError, match="offset"):
            read_frame_page(path, KIND, 1, parse_payload, offset=-1)
        with pytest.raises(ValueError, match="limit"):
            read_frame_page(path, KIND, 1, parse_payload, limit=-2)

    def test_wrong_kind_refused(self, tmp_path):
        path = self.file(tmp_path)
        with pytest.raises(ValueError, match="not a scenario-suite"):
            read_frame_page(path, "scenario-suite", 1, parse_payload)


class TestAtomicText:
    def test_clean_exit_replaces_the_file(self, tmp_path):
        path = tmp_path / "sub" / "f.json"
        with atomic_text(path) as handle:
            handle.write("old\n")
        with atomic_text(path) as handle:
            handle.write("new\n")
        assert path.read_text() == "new\n"
        assert list(path.parent.iterdir()) == [path]

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_exception_keeps_the_old_bytes_and_no_temp_file(self, tmp_path, error):
        path = tmp_path / "f.json"
        path.write_text("old\n")
        with pytest.raises(error):
            with atomic_text(path) as handle:
                handle.write("half of the new")
                handle.flush()
                raise error()
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]


class TestWriteOrPrint:
    def test_out_file_is_replaced_and_named(self, tmp_path, capsys):
        path = tmp_path / "sub" / "report.md"
        write_or_print("old\n", path)
        write_or_print("new\n", path)
        assert path.read_text() == "new\n"
        assert list(path.parent.iterdir()) == [path]
        assert capsys.readouterr().out == f"wrote {path}\nwrote {path}\n"

    def test_no_out_prints_one_trailing_newline(self, capsys):
        write_or_print("a\n", None)
        write_or_print("b", None)
        assert capsys.readouterr().out == "a\nb\n"

    def test_a_pipe_is_written_through_not_replaced(self, tmp_path):
        # ``--out /dev/null`` (CI's gate step) and pipes cannot be replaced.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_text()), daemon=True
        )
        reader.start()
        write_or_print("report\n", fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == ["report\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
