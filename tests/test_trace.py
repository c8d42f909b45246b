import json
import math

import pytest

from fleetsim.trace import (
    CONTROL,
    HEADER,
    STATE,
    Trace,
    TraceError,
    dumps_record,
    read_trace,
    write_trace,
)


class TestFormatting:
    @pytest.mark.parametrize("value,expected", [
        (None, "null"),
        (True, "true"),
        (False, "false"),
        (0, "0"),
        (-17, "-17"),
        (0.0, "0"),
        (-0.0, "0"),
        (1.5, "1.5"),
        (0.1, "0.1"),
        (1 / 3, "0.333333333"),
        (1234567891.0, "1.23456789e+09"),
        (1e-12, "1e-12"),
        ("a \"b\"", '"a \\"b\\""'),
        ([1, 2.5, "x"], '[1,2.5,"x"]'),
        ((0.0, None), "[0,null]"),
        ({"a": 1, "b": [True]}, '{"a":1,"b":[true]}'),
    ])
    def test_scalar_forms(self, value, expected):
        assert dumps_record(value) == expected

    def test_nine_significant_digits(self):
        assert dumps_record(math.pi) == "3.14159265"

    def test_key_order_preserved(self):
        assert dumps_record({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_non_string_keys_coerced(self):
        assert dumps_record({3: "x"}) == '{"3":"x"}'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_record({"t": bad})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_record({"t": object()})

    def test_output_is_valid_json(self):
        record = {"type": STATE, "t": 0.25, "pose": [1.0, 2.0, -0.5], "ok": True}
        assert json.loads(dumps_record(record)) == record


class TestRoundTrip:
    def make_trace(self):
        header = {"type": HEADER, "version": 1, "duration": 2.0, "seed": 3}
        events = [
            {"type": STATE, "t": 0.0, "robot": 0, "x": 1.0},
            {"type": CONTROL, "t": 0.05, "robot": 0, "v": 0.5, "omega": 0.0},
            {"type": STATE, "t": 0.01, "robot": 1, "x": 2.0},
        ]
        return Trace(header, events)

    def test_write_then_read(self, tmp_path):
        path = tmp_path / "run.trace"
        trace = self.make_trace()
        write_trace(path, trace)
        back = read_trace(path)
        assert back.header == trace.header
        assert back.events == trace.events

    def test_file_layout(self, tmp_path):
        path = tmp_path / "run.trace"
        write_trace(path, self.make_trace())
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["type"] == HEADER
        assert lines[1] == '{"type":"state","t":0,"robot":0,"x":1}'

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        write_trace(first, self.make_trace())
        write_trace(second, read_trace(first))
        assert first.read_bytes() == second.read_bytes()

    def test_of_type_filters(self):
        trace = self.make_trace()
        assert [e["robot"] for e in trace.of_type(STATE)] == [0, 1]
        assert list(trace.of_type("missing")) == []

    def test_duration_from_header(self):
        assert self.make_trace().duration == 2.0
        assert Trace({"type": HEADER}).duration == 0.0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.trace"
        write_trace(path, self.make_trace())
        path.write_text(path.read_text() + "\n\n")
        assert len(read_trace(path).events) == 3

    @pytest.mark.parametrize("layout", ["crlf", "cr", "blank_between", "no_final_newline"])
    def test_line_layouts_read_the_same(self, tmp_path, layout):
        path = tmp_path / "run.trace"
        trace = self.make_trace()
        write_trace(path, trace)
        text = path.read_text()
        text = {
            "crlf": text.replace("\n", "\r\n"),
            "cr": text.replace("\n", "\r"),
            "blank_between": text.replace("\n", "\n\n"),
            "no_final_newline": text.rstrip("\n"),
        }[layout]
        path.write_bytes(text.encode())
        back = read_trace(path)
        assert (back.header, back.events) == (trace.header, trace.events)

    def test_error_lines_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b'{"type":"header"}\r\n\r\n{"type":"state"}\r\n{broken')
        with pytest.raises(TraceError, match="line 4"):
            read_trace(path)


class TestReadErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceError, match="empty trace"):
            read_trace(path)

    def test_first_record_not_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"type":"state","t":0}\n')
        with pytest.raises(TraceError, match="not a header"):
            read_trace(path)

    def test_bad_json_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("{oops\n")
        with pytest.raises(TraceError, match="line 1"):
            read_trace(path)

    def test_bad_json_event_reports_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"type":"header"}\n{"type":"state"}\n{broken\n')
        with pytest.raises(TraceError, match="line 3"):
            read_trace(path)

    def test_whitespace_only_line_is_an_error(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"type":"header"}\n \n{"type":"state"}\n')
        with pytest.raises(TraceError, match="line 2"):
            read_trace(path)

    def test_blank_first_line_is_a_bad_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('\n{"type":"header"}\n')
        with pytest.raises(TraceError, match="line 1"):
            read_trace(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(tmp_path / "nope.trace")
