import copy
import json
import math
import random
import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from fleetsim import trace as trace_module
from fleetsim.trace import (
    CONTROL,
    HEADER,
    SCHEMA,
    STATE,
    STR,
    Trace,
    TraceError,
    check_record,
    dumps_record,
    read_trace,
    write_trace,
)

from _support import ROOT


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


class TestWriteErrors:
    def test_unwritable_record_names_its_line_type_and_time(self, tmp_path):
        path = tmp_path / "run.trace"
        events = [
            {"type": STATE, "t": 0.0, "robots": [[0, 1.0, 2.0, 0.0, 0.0]], "humans": []},
            {"type": STATE, "t": 0.05, "robots": [[0, math.inf, 2.0, 0.0, 0.0]],
             "humans": []},
        ]
        with pytest.raises(ValueError) as info:
            write_trace(path, Trace({"type": HEADER}, events))
        assert str(info.value) == (
            f"{path}: line 3: state record at t=0.05: "
            "non-finite value in trace record: inf")
        # the lines before it are written
        assert path.read_text().splitlines() == [
            '{"type":"header"}', '{"type":"state","t":0,"robots":[[0,1,2,0,0]],"humans":[]}']

    def test_unserializable_header_keeps_its_error_type(self, tmp_path):
        path = tmp_path / "run.trace"
        with pytest.raises(TypeError, match=r"line 1: header record: cannot serialize"):
            write_trace(path, Trace({"type": HEADER, "x": object()}))


# The golden runs of tests/test_engine.py (fixtures in conftest.py).
GOLDEN_RUNS = ["smoke_result", "corridors_result", "rooms_result", "depot_result",
               "busy6_result", "crowd_result"]


@pytest.mark.parametrize("fixture", GOLDEN_RUNS)
def test_golden_records_format_alike_both_ways(fixture, request, tmp_path):
    """Every engine record of a bulk type takes its per-type formatter, which
    writes _fmt's bytes. Read back, where 0.0 comes back as 0, a record
    still writes the line it was read from, by either path."""
    _, result = request.getfixturevalue(fixture)
    path = tmp_path / "run.trace"
    write_trace(path, result.trace)
    lines = path.read_text().splitlines()
    back = read_trace(path)
    records = [result.trace.header, *result.trace.events]
    read = [back.header, *back.events]
    assert [trace_module._fmt(r) for r in records] == lines
    assert [trace_module._fmt(r) for r in read] == lines
    bulk = [k for k, r in enumerate(records) if r["type"] in trace_module._LINES]
    assert {records[k]["type"] for k in bulk} == set(trace_module._LINES)
    by_type = {k: trace_module._LINES[records[k]["type"]] for k in bulk}
    assert [by_type[k](records[k]) for k in bulk] == [lines[k] for k in bulk]
    # an int where a float belongs sends a read-back record to _fmt
    assert [k for k in bulk if by_type[k](read[k]) not in (lines[k], None)] == []


@pytest.mark.parametrize("fixture", GOLDEN_RUNS)
def test_golden_records_pass_their_checks(fixture, request, tmp_path):
    """The engine writes each record as SCHEMA declares it: the header and
    every event of the golden runs pass check_record, in memory and read
    back."""
    _, result = request.getfixturevalue(fixture)
    path = tmp_path / "run.trace"
    write_trace(path, result.trace)
    back = read_trace(path)
    for records in ([result.trace.header, *result.trace.events], [back.header, *back.events]):
        assert {r["type"] for r in records} <= set(SCHEMA)
        assert [(r, check_record(r)) for r in records if check_record(r) is not None] == []


def _keys_off_schema(value, slot, path="", optional={}):
    """(path, keys) of each mapping in ``value``, a value of ``slot``, whose
    keys are not its slot's in order, then the ``optional`` ones it has."""
    if type(slot) is dict:
        if list(value) != [*slot, *(name for name in optional if name in value)]:
            yield path, list(value)
        for name, item in {**slot, **optional}.items():
            if name in value:
                yield from _keys_off_schema(value[name], item, f"{path}.{name}")
    elif type(slot) is not str:
        items = slot if type(slot) is tuple else slot * len(value)
        for k, (item, v) in enumerate(zip(items, value)):
            yield from _keys_off_schema(v, item, f"{path}[{k}]")


@pytest.mark.parametrize("fixture", GOLDEN_RUNS)
def test_golden_records_carry_exactly_the_schema_keys(fixture, request):
    """Every record of the golden runs, header included, has its SCHEMA
    entry's keys in order at every level, the optional ones present or not,
    and no other key: check_record lets other keys pass."""
    _, result = request.getfixturevalue(fixture)
    assert [(r["type"], *found) for r in [result.trace.header, *result.trace.events]
            for found in _keys_off_schema(r, {"type": STR, **SCHEMA[r["type"]][0]}, "",
                                          SCHEMA[r["type"]][1])] == []


def test_readme_lists_the_schema_keys():
    """README's Traces table lists each SCHEMA type with its keys, in order:
    "type", the required keys, then after a ";" the optional ones."""
    section = (ROOT / "README.md").read_text().split("\n## Traces\n")[1].split("\n## ")[0]
    listed = []
    for kind, keys in re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M):
        keys = re.sub(r"\([^)]*\)", "", keys).split(";")
        listed.append((kind, *[re.findall(r"`(\w+)`", part) for part in keys]))
    assert listed == [
        (kind, ["type", *required], *([list(optional)] if optional else []))
        for kind, (required, optional) in SCHEMA.items()
    ]


def test_check_record_names_the_first_bad_slot():
    record = {"type": STATE, "t": 0.5, "robots": [[0, 1.0, 2.0, 0.0, 0.0], [1, 1, 2, "x", 0]],
              "humans": [[1.0, 2.0, math.inf, 0.0]]}
    assert check_record(record) == 'robots[1][3]: expected a number, got "x"'
    record["robots"][1][3] = 0
    assert check_record(record) == "humans[0][2]: expected a number, got Infinity"
    record["humans"] = []
    assert check_record(record) is None
    assert check_record({"type": "qp", "t": 1, "leader": 0, "members": [0], "status": "feasible",
                         "max_slack": 0, "rows": 0, "duration": None}) == (
        "duration: expected a number, got null")
    assert check_record({"type": "end", "t": 1}) == "ticks: missing"
    assert check_record({"type": "other", "t": "x"}) is None


def _outcome(write, record):
    """The line ``write`` makes of ``record``, or its error type and message."""
    try:
        return write(record)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# One record of each bulk type in the engine's shape (plan twice: a path and
# a planner error).
ENGINE_SHAPES = [
    {"type": "state", "t": 0.05,
     "robots": [[0, 1.5, 2.25, -0.5, 0.3], [1, 3.0, 1e-7, 3.14159265, -0.0]],
     "humans": [[1.0, 2.0, 0.1, -0.2]]},
    {"type": "control", "t": 0.05, "robots": [[0, 0.75, -0.4], [1, -0.0, 0.0]]},
    {"type": "clusters", "t": 0.1, "clusters": [[0, [0, 2], [0], False], [1, [1], [], True]]},
    {"type": "qp", "t": 0.1, "leader": 0, "members": [0, 2], "status": "feasible",
     "max_slack": 0.0, "rows": 8},
    {"type": "plan", "t": 1.0, "robot": 1, "from": [2.99885151, 2.5], "to": [3.0, 5.7],
     "status": "ok", "cost": 6.25, "points": [[2.75, 2.75], [2.75, 3.25], [3.0, 5.7]]},
    {"type": "plan", "t": 1.0, "robot": 0, "from": [1.0, 2.0], "to": [3.0, 5.7],
     "status": "error", "cost": None, "points": []},
]

SLOT_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                     1e9, 123456789.0, 1.5e-5]),
    st.integers(-3, 3),
    st.integers(10**9, 10**20),
    st.integers(max_value=-10**9),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)


def _slots(value):
    """(container, key) of every dict value and list item under ``value``."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(len(value))
    else:
        return
    for key in keys:
        yield value, key
        yield from _slots(value[key])


def _mutate(record: dict, data) -> None:
    container, key = data.draw(st.sampled_from(list(_slots(record))))
    action = data.draw(st.sampled_from(["value", "tuple", "drop", "extra"]))
    if action == "value":
        container[key] = data.draw(SLOT_VALUES)
    elif action == "tuple" and isinstance(container[key], list):
        container[key] = tuple(container[key])
    elif action == "drop":
        del container[key]
    elif action == "extra" and isinstance(container, dict):
        container["extra"] = data.draw(SLOT_VALUES)
    elif action == "extra":
        container.insert(key, data.draw(SLOT_VALUES))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(ENGINE_SHAPES), st.data())
def test_per_type_and_generic_paths_agree(shape, data):
    """Any slot of a bulk record set to a float, an int (also >= 1e9), a
    bool, None, a string, -0.0, nan or +-inf, a list turned into a tuple, a
    key or item dropped or added: dumps_record writes _fmt's bytes, or
    raises _fmt's error with _fmt's message."""
    record = copy.deepcopy(shape)
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(record, data)
    assert _outcome(dumps_record, record) == _outcome(trace_module._fmt, record)


@pytest.mark.parametrize("shape", ENGINE_SHAPES, ids=lambda r: f"{r['type']}-{r['status']}"
                         if "status" in r else r["type"])
def test_each_slot_alone_agrees(shape):
    """Every single slot of each bulk record set to each special value, and
    every list in it turned into a tuple."""
    as_tuple = object()
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0, 10**9, -10**12, True, None,
                "x", 1.5, [], (1.5,), as_tuple]
    for index in range(len(list(_slots(shape)))):
        for value in specials:
            record = copy.deepcopy(shape)
            container, key = list(_slots(record))[index]
            if value is as_tuple:
                if not isinstance(container[key], list):
                    continue
                value = tuple(container[key])
            container[key] = value
            assert (_outcome(dumps_record, record)
                    == _outcome(trace_module._fmt, record)), record


@pytest.mark.parametrize("status", ["a-0,b", "-0]", "infeasible-fallback", "nan", "%d%%s"])
def test_strings_that_look_like_numbers_write_as_the_generic_path_does(status):
    """A string is written into a record's text as it is: a -0, nan or
    %-field in it is not taken for a number, next to a -0.0 that is."""
    for shape in ENGINE_SHAPES:
        if "status" in shape:
            record = {**shape, "t": -0.0, "status": status}
            assert dumps_record(record) == trace_module._fmt(record)


def test_every_float_writes_as_the_generic_path_does():
    """20 000 doubles from random bit patterns (subnormals, huge values and
    nans among them) and 2 000 plain ones, in the float slots of a control
    record."""
    rng = random.Random(23)
    floats = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
              for _ in range(20_000)]
    floats += [rng.uniform(-30.0, 30.0) for _ in range(2_000)]
    for a, b in zip(floats[::2], floats[1::2]):
        record = {"type": "control", "t": 0.05, "robots": [[0, a, b]]}
        assert _outcome(dumps_record, record) == _outcome(trace_module._fmt, record)
