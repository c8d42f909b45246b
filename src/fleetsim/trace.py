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
from itertools import chain, islice
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


# Per record type, the keys after "type" in the engine's order with their
# slots, then the optional trailing keys. A slot is a kind below, [slot] a
# list of any length, (slot, ...) a list of exactly those slots, or {key:
# slot, ...} a mapping with those keys. No writer takes a mapping or a bound.
FLOAT, INT, STR, BOOL = "a number", "an integer", "a string", "a boolean"
FLOAT_OR_NULL, INT_OR_NULL = "a number or null", "an integer or null"
POSITIVE, NON_NEGATIVE = "a number > 0", "a number >= 0"
_NULLABLE = {FLOAT_OR_NULL: FLOAT, INT_OR_NULL: INT}
_OUT_OF_RANGE = {POSITIVE: "<= 0", NON_NEGATIVE: "< 0"}
_XY = (FLOAT, FLOAT)

SCHEMA = {
    HEADER: ({"version": INT, "digest": STR, "seed": INT, "tick_dt": POSITIVE,
              "control_period": POSITIVE, "replan_period": POSITIVE, "duration": NON_NEGATIVE,
              "timing": BOOL,
              "map": {"width": INT, "height": INT, "resolution": FLOAT, "origin_x": FLOAT,
                      "origin_y": FLOAT, "text": STR},
              "robots": [{"id": INT, "name": STR, "x": FLOAT, "y": FLOAT, "heading": FLOAT,
                          "r_robot": FLOAT, "r_safe": FLOAT}],
              "humans": [{"x": FLOAT, "y": FLOAT}],
              "locations": [(INT, FLOAT, FLOAT)],
              "rooms": [{"location": INT, "polygon": [_XY], "queue_slots": [_XY]}],
              "params": {"d_neighbor": FLOAT, "n_rays": INT, "max_range": FLOAT,
                         "cost_weight": FLOAT, "inflation_radius": FLOAT, "cost_scale": FLOAT,
                         "release_distance": FLOAT, "queue_request_factor": FLOAT,
                         "r_human": FLOAT}}, {}),
    STATE: ({"t": FLOAT, "robots": [(INT, FLOAT, FLOAT, FLOAT, FLOAT)],
             "humans": [(FLOAT, FLOAT, FLOAT, FLOAT)]}, {}),
    CONTROL: ({"t": FLOAT, "robots": [(INT, FLOAT, FLOAT)]}, {}),
    CLUSTERS: ({"t": FLOAT, "clusters": [(INT, [INT], [INT], BOOL)]}, {}),
    QP: ({"t": FLOAT, "leader": INT, "members": [INT], "status": STR, "max_slack": FLOAT,
          "rows": INT}, {"duration": FLOAT}),
    PLAN: ({"t": FLOAT, "robot": INT, "from": _XY, "to": _XY, "status": STR,
            "cost": FLOAT_OR_NULL, "points": [_XY]}, {}),
    TASK: ({"t": FLOAT, "event": STR, "task": STR, "robot": INT_OR_NULL},
           {"start": INT, "end": INT, "deadline": FLOAT}),
    QUEUE: ({"t": FLOAT, "room": INT, "event": STR, "robot": INT, "index": INT_OR_NULL,
             "occupants": [INT], "holder": INT_OR_NULL}, {}),
    ARRIVAL: ({"t": FLOAT, "robot": INT, "waypoint": _XY}, {}),
    FAULT: ({"t": FLOAT, "robot": INT, "error": STR}, {}),
    END: ({"t": FLOAT, "ticks": INT}, {"wall_time": FLOAT}),
}

# Each type is compiled once, as dataclasses compiles __init__, into code
# that tests a record slot by slot: a checker, and a writer for a bulk type.
# A writer keys the text that is not numbers to a %-template, and writes -0.0
# as 0. It returns None, which sends the record to _fmt (the same bytes, or
# _fmt's error), for a record not exactly in the engine's shape: other keys or
# key order, a slot of another type (an int for a float, a tuple for a list,
# a bool for an int), or a nan or +-inf.


def _code(slot, v: str, indent: str, path: str | None, gather: bool = True,
          optional: dict = {}) -> list[str]:
    """Lines testing the value named ``v`` against ``slot``, a mapping's keys
    then those of ``optional`` it has. A checker's (``path`` an f-string
    naming ``v``, "" for a record) return the problem; a FLOAT may be an int.
    A writer's (never of a mapping) return None, put numbers in ``flat`` if
    ``gather``, the rest in ``shape``."""
    def fail(expected: str) -> str:
        if path is None:
            return "return None"
        return f"return f{f'{path}: expected {expected}, got '!r} + json.dumps({v}, default=repr)"

    def shape(expr: str) -> list[str]:
        return [f"{indent}shape.append({expr})"] if path is None else []

    if type(slot) is dict:
        lines = [f"{indent}if type({v}) is not dict: {fail('a mapping')}", f"{indent}try:",
                 *[f"{indent}    {v}_{k} = {v}[{name!r}]" for k, name in enumerate(slot)],
                 f"{indent}except KeyError as exc: return f"
                 + repr((f"{path}." if path else "") + "{exc.args[0]}: missing")]
        for k, (name, item) in enumerate({**slot, **optional}.items()):
            inner = indent
            if name in optional:
                lines += [f"{indent}if {name!r} in {v}:", f"{indent}    {v}_{k} = {v}[{name!r}]"]
                inner += "    "
            lines += _code(item, f"{v}_{k}", inner, f"{path}.{name}" if path else name)
        return lines
    if type(slot) is str:
        number = f"type({v}) is not float or {v} - {v}"  # nan for nan and +-inf
        bad = {FLOAT: number if path is None else f"type({v}) is not int and ({number})",
               INT: f"type({v}) is not int", STR: f"type({v}) is not str",
               BOOL: f"type({v}) is not bool"}
        bad.update({kind: f"{bad[FLOAT]} or {v} {out}" for kind, out in _OUT_OF_RANGE.items()})
        test = bad.get(slot) or f"{v} is not None and ({bad[_NULLABLE[slot]]})"
        lines = [f"{indent}if {test}: {fail(slot)}"]
        if slot not in (FLOAT, INT):
            lines += shape(f"{v} is None" if slot in _NULLABLE else v)
        if path is None and gather and slot not in (STR, BOOL):
            lines.append(f"{indent}if {v} is not None: flat.append({v})" if slot in _NULLABLE
                         else f"{indent}flat.append({v})")
        return lines
    width = len(slot) if type(slot) is tuple else None
    lines = [f"{indent}if type({v}) is not list" + (f" or len({v}) != {width}" if width else "")
             + f": {fail(f'a list of {width} items' if width else 'a list')}"]
    whole = all(item in (FLOAT, INT) for item in slot)  # gathered as one list
    if width is None:
        loop = f"for {v}_ in {v}:" if path is None else f"for {v}_k, {v}_ in enumerate({v}):"
        lines += [*shape(f"len({v})"), indent + loop, *_code(
            slot[0], f"{v}_", indent + "    ", path and f"{path}[{{{v}_k}}]", gather and not whole)]
    else:
        names = [f"{v}_{k}" for k in range(width)]
        lines.append(f"{indent}{', '.join(names)}, = {v}")
        for k, (item, name) in enumerate(zip(slot, names)):
            lines += _code(item, name, indent, path and f"{path}[{k}]", gather and not whole)
    return lines + ([f"{indent}flat += {v}"] if path is None and gather and whole else [])


def _compiled(name: str, body: list[str]):
    namespace = {"_form": _form, "json": json}
    exec(compile("\n".join([f"def {name}(record):", *body]), f"<{name}>", "exec"), namespace)
    return namespace[name]


def _writer(kind: str):
    slots = SCHEMA[kind][0]
    names = [f"v{k}" for k in range(len(slots))]
    return _compiled(f"write_{kind}", [
        f"    if tuple(record) != {('type', *slots)!r}: return None",
        f"    _, {', '.join(names)}, = record.values()",
        f"    flat, shape = [], [{kind!r}]",
        *[line for slot, v in zip(slots.values(), names) for line in _code(slot, v, "    ", None)],
        "    template = _form(tuple(shape))",
        "    if not template: return None",
        "    text = template % tuple(flat)",
        '    if "-0," in text or "-0]" in text:',
        '        return text.replace("-0,", "0,").replace("-0]", "0]")',
        "    return text",
    ])


def _checker(kind: str):
    required, optional = SCHEMA[kind]
    return _compiled(f"check_{kind}",
                     [*_code(required, "record", "    ", "", optional=optional), "    return None"])


def _template(slot, shape: Iterator) -> str:
    """The %-template of a value of ``slot`` (a dict of slots: a record) for
    which a writer put ``shape`` in its key."""
    if type(slot) is dict:
        return "{" + ",".join([f"{_fmt(name)}:{_template(item, shape)}"
                               for name, item in slot.items()]) + "}"
    if slot in (FLOAT, INT):
        return "%.9g" if slot == FLOAT else "%d"
    if type(slot) is str:
        if slot in _NULLABLE:
            return "null" if next(shape) else _template(_NULLABLE[slot], shape)
        return _fmt(next(shape)).replace("%", "%%")
    items = slot if type(slot) is tuple else slot * next(shape)
    return "[" + ",".join([_template(item, shape) for item in items]) + "]"


@lru_cache(maxsize=1024)
def _form(key: tuple) -> str:
    """The template of the records a writer keys ``key``; "" if a string in
    it holds "-0," or "-0]", or a float ends it, so that -0 would be missed."""
    template = _template({"type": STR, **SCHEMA[key[0]][0]}, iter(key))
    literal = template.replace("%.9g", "1").replace("%d", "1")
    return "" if "-0," in literal or "-0]" in literal or template.endswith("%.9g}") else template


_LINES = {kind: _writer(kind) for kind in (STATE, CONTROL, CLUSTERS, QP, PLAN)}
_CHECKS = {kind: _checker(kind) for kind in SCHEMA}


def dumps_record(record: dict) -> str:
    """Serialize one record to its canonical single-line form.

    The engine's bulk records (``state``, ``control``, ``clusters``, ``qp``,
    ``plan``) take the writer compiled from their SCHEMA entry; every other
    value, and any record of those types in another shape, takes the generic
    ``_fmt``. Both give the same bytes, and raise the same error for a value
    that cannot be written: ``ValueError`` for nan and +-inf, ``TypeError``
    for a type JSON has no form for.
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


def _where(record: dict) -> str:
    """The type and time of ``record``, as an error names them."""
    return f"{record.get('type')} record" + (f" at t={record['t']}" if "t" in record else "")


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
                raise type(exc)(f"{path}: line {n}: {_where(record)}: {exc}") from None
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


def check_record(record: dict) -> str | None:
    """The first slot of ``record`` that SCHEMA rejects, and why (``robots[2][3]:
    expected a number, got "x"``), or None. Other keys and types pass."""
    check = _CHECKS.get(record.get("type"))
    return None if check is None else check(record)


def check_trace(path: str | Path, trace: Trace) -> None:
    """Raise TraceError naming the path, line, type, time and problem of the
    first record of ``trace`` (read from ``path``), the header as line 1,
    that check_record faults. Only then is the file read again, to number
    that line."""
    for k, record in enumerate(chain([trace.header], trace.events)):
        problem = check_record(record)
        if problem is not None:
            with open(path) as fh:
                lines = (n for n, line in enumerate(fh, start=1) if n == 1 or line.rstrip("\n"))
                n = next(islice(lines, k, None))
            raise TraceError(f"{path}: line {n}: {_where(record)}: {problem}")
