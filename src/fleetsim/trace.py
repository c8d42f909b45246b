"""Run traces: line-delimited JSON with stable float formatting.

The first line is the header record; every following line is one event.
Floats serialize with 9 significant digits and key order is fixed by record
construction, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from json.scanner import make_scanner
from pathlib import Path
from typing import Iterator

# record types
HEADER = "header"
STATE = "state"
CONTROL = "control"
CLUSTERS = "clusters"
QP = "qp"
PLAN = "plan"
QUEUE = "queue"
TASK = "task"
ARRIVAL = "arrival"
FAULT = "fault"
END = "end"


class TraceError(ValueError):
    """Malformed trace file."""


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in trace record: {value}")
        if value == 0.0:
            return "0"
        return format(value, ".9g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in value.items())
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} in trace record")


def as_written(value: float) -> float:
    """``value`` as a written trace reads it back: 9 significant digits."""
    return float(format(value, ".9g"))


# Per-type formatters for the engine's bulk records. Each writes a whole
# record in one %-pass, or returns None when the record is not exactly the
# engine's shape: other keys or key order, a slot of another type (an int
# where a float belongs, a tuple for a list, a bool for an int), or a nan or
# +-inf, which _fmt rejects. None sends the record to _fmt, which writes the
# same bytes or raises its own error. -0.0 is written as 0, as _fmt does.
# Slot types are compared as lists: a tuple built from an iterator of no
# known length is resized, which strands one tuple per call on CPython's
# tuple free lists until they fill.

_quoted = lru_cache(maxsize=256)(json.dumps)
_INTS = {int}


def _ints(seq) -> str | None:
    """A list of ints as its comma-joined items."""
    if type(seq) is list and {*map(type, seq)} <= _INTS:
        return ",".join(map(str, seq))
    return None


def _flatten(rows, width: int, out: list) -> bool:
    """Append the items of ``rows``, a list of ``width``-item lists, to ``out``."""
    if type(rows) is not list:
        return False
    for row in rows:
        if type(row) is not list or len(row) != width:
            return False
        out += row
    return True


def _numbers(line: str) -> str | None:
    """``line``, which %.9g wrote numbers into, with each -0 written as 0,
    as _fmt writes it; None if a number is nan or +-inf. Only for lines
    whose other text holds no "nan", "inf", "-0," or "-0]"."""
    if "nan" in line or "inf" in line:
        return None
    if "-0," in line or "-0]" in line:
        return line.replace("-0,", "0,").replace("-0]", "0]")
    return line


@lru_cache(maxsize=64)
def _state_shape(n: int, m: int) -> tuple[list, str]:
    """Slot types and template of a state record of n robots and m pedestrians."""
    return (
        [float] + [int, float, float, float, float] * n + [float] * (4 * m),
        '{"type":"state","t":%.9g,"robots":['
        + ",".join(["[%d,%.9g,%.9g,%.9g,%.9g]"] * n)
        + '],"humans":[' + ",".join(["[%.9g,%.9g,%.9g,%.9g]"] * m) + "]}",
    )


def _state_line(record: dict) -> str | None:
    if tuple(record) != ("type", "t", "robots", "humans"):
        return None
    _, t, robots, humans = record.values()
    flat = [t]
    if not (_flatten(robots, 5, flat) and _flatten(humans, 4, flat)):
        return None
    types, template = _state_shape(len(robots), len(humans))
    if [*map(type, flat)] != types:
        return None
    return _numbers(template % tuple(flat))


@lru_cache(maxsize=64)
def _control_shape(n: int) -> tuple[list, str]:
    """Slot types and template of a control record of n robots."""
    return (
        [float] + [int, float, float] * n,
        '{"type":"control","t":%.9g,"robots":[' + ",".join(["[%d,%.9g,%.9g]"] * n) + "]}",
    )


def _control_line(record: dict) -> str | None:
    if tuple(record) != ("type", "t", "robots"):
        return None
    _, t, robots = record.values()
    flat = [t]
    if not _flatten(robots, 3, flat):
        return None
    types, template = _control_shape(len(robots))
    if [*map(type, flat)] != types:
        return None
    return _numbers(template % tuple(flat))


def _clusters_line(record: dict) -> str | None:
    if tuple(record) != ("type", "t", "clusters"):
        return None
    _, t, clusters = record.values()
    # t - t is nan, which is true, for nan and +-inf
    if type(t) is not float or t - t or type(clusters) is not list:
        return None
    ints = []
    for row in clusters:
        if type(row) is not list or len(row) != 4:
            return None
        leader, members, active, stop = row
        if type(members) is not list or type(active) is not list or type(stop) is not bool:
            return None
        ints.append(leader)
        ints += members
        ints += active
    if not {*map(type, ints)} <= _INTS:
        return None
    rows = ",".join([
        f"[{leader},[{','.join(map(str, members))}],[{','.join(map(str, active))}],"
        f"{'true' if stop else 'false'}]"
        for leader, members, active, stop in clusters
    ])
    return '{"type":"clusters","t":%.9g,"clusters":[%s]}' % (t or 0.0, rows)


_QP_KEYS = ("type", "t", "leader", "members", "status", "max_slack", "rows")
_QP_TYPES = [str, float, int, list, str, float, int]


def _qp_line(record: dict) -> str | None:
    if tuple(record) != _QP_KEYS:
        return None
    values = [*record.values()]
    if [*map(type, values)] != _QP_TYPES:
        return None
    _, t, leader, members, status, slack, rows = values
    members = _ints(members)
    if members is None or t - t or slack - slack:
        return None
    return ('{"type":"qp","t":%.9g,"leader":%d,"members":[%s],"status":%s,'
            '"max_slack":%.9g,"rows":%d}'
            % (t or 0.0, leader, members, _quoted(status), slack or 0.0, rows))


def _plan_line(record: dict) -> str | None:
    if tuple(record) != ("type", "t", "robot", "from", "to", "status", "cost", "points"):
        return None
    _, t, robot, start, goal, status, cost, points = record.values()
    if type(robot) is not int or type(status) is not str:
        return None
    flat = [t]
    if not (_flatten([start, goal], 2, flat) and _flatten(points, 2, flat)):
        return None
    if cost is not None:
        flat.insert(5, cost)
    if {*map(type, flat)} != {float}:
        return None
    head = _numbers('{"type":"plan","t":%.9g,"robot":%d,"from":[%.9g,%.9g],'
                    '"to":[%.9g,%.9g],"status":' % (t, robot, *flat[1:5]))
    tail = _numbers(
        (',"cost":' + ("null" if cost is None else "%.9g") + ',"points":['
         + ",".join(["[%.9g,%.9g]"] * len(points)) + "]}") % tuple(flat[5:]))
    if head is None or tail is None:
        return None
    return head + _quoted(status) + tail


_LINES = {
    STATE: _state_line, CONTROL: _control_line, CLUSTERS: _clusters_line,
    QP: _qp_line, PLAN: _plan_line,
}


def dumps_record(record: dict) -> str:
    """Serialize one record to its canonical single-line form.

    The engine's bulk records (``state``, ``control``, ``clusters``, ``qp``,
    ``plan``) take a formatter of their type; every other value, and any
    record of those types in another shape, takes the generic ``_fmt``. Both
    give the same bytes, and raise the same error for a value that cannot be
    written: ``ValueError`` for nan and +-inf, ``TypeError`` for a type
    JSON has no form for.
    """
    if type(record) is dict:
        kind = record.get("type")
        line_of = _LINES.get(kind) if type(kind) is str else None
        if line_of is not None:
            line = line_of(record)
            if line is not None:
                return line
    return _fmt(record)


@dataclass
class Trace:
    header: dict
    events: list[dict] = field(default_factory=list)

    def of_type(self, kind: str) -> Iterator[dict]:
        return (e for e in self.events if e.get("type") == kind)

    @property
    def duration(self) -> float:
        return float(self.header.get("duration", 0.0))


def write_trace(path: str | Path, trace: Trace) -> None:
    """Write the header, then one line per event.

    A record that cannot be written raises the ``ValueError`` or
    ``TypeError`` of ``dumps_record``, its message prefixed with the path
    and the record's line number, type and time; the lines before it stay in
    the file.
    """
    with open(path, "w") as fh:
        lines = []  # written 256 at a time
        for n, record in enumerate(chain([trace.header], trace.events), start=1):
            try:
                lines.append(dumps_record(record) + "\n")
            except (ValueError, TypeError) as exc:
                fh.write("".join(lines))
                where = f"{record.get('type')} record" + (
                    f" at t={record['t']}" if "t" in record else "")
                raise type(exc)(f"{path}: line {n}: {where}: {exc}") from None
            if len(lines) == 256:
                fh.write("".join(lines))
                lines.clear()
        fh.write("".join(lines))


# the C scanner that json.loads runs, without json.loads' per-call set-up;
# a line it does not take whole goes to json.loads, for its result or error
_scan = make_scanner(json.JSONDecoder())


def _record(path, n: int, line: str) -> dict:
    """Line ``n`` parsed as one record: a JSON object with a string type."""
    try:
        record, end = _scan(line, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(line):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: line {n}: {exc}") from None
    if not isinstance(record, dict):
        raise TraceError(
            f"{path}: line {n}: expected a JSON object, got {type(record).__name__}"
        )
    if not isinstance(record.get("type"), str):
        raise TraceError(f"{path}: line {n}: record has no string 'type'")
    return record


def read_trace(path: str | Path) -> Trace:
    """Parse a trace one line at a time, skipping empty lines after the
    header; ``\n``, ``\r\n`` and ``\r`` all end a line.

    The cyclic garbage collector is paused while the records are built:
    parsing makes no reference cycles, and the collections that the new
    objects would set off scan the growing heap again and again.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            lines = (line.rstrip("\n") for line in fh)
            first = next(lines, None)
            if first is None:
                raise TraceError(f"{path}: empty trace file")
            header = _record(path, 1, first)
            if header["type"] != HEADER:
                raise TraceError(f"{path}: first record is not a header")
            events = [_record(path, n, line)
                      for n, line in enumerate(lines, start=2) if line]
    finally:
        if collecting:
            gc.enable()
    return Trace(header, events)
