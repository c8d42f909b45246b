"""Run traces: line-delimited JSON with stable float formatting.

The first line is the header record; every following line is one event.
Floats serialize with 9 significant digits and key order is fixed by record
construction, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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


def dumps_record(record: dict) -> str:
    """Serialize one record to its canonical single-line form."""
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
    with open(path, "w") as fh:
        fh.write(dumps_record(trace.header) + "\n")
        for event in trace.events:
            fh.write(dumps_record(event) + "\n")


def _record(path, n: int, line: str) -> dict:
    """Line ``n`` parsed as one record: a JSON object with a string type."""
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
    header; ``\n``, ``\r\n`` and ``\r`` all end a line."""
    with open(path) as fh:
        lines = (line.rstrip("\n") for line in fh)
        first = next(lines, None)
        if first is None:
            raise TraceError(f"{path}: empty trace file")
        header = _record(path, 1, first)
        if header["type"] != HEADER:
            raise TraceError(f"{path}: first record is not a header")
        events = [_record(path, n, line) for n, line in enumerate(lines, start=2) if line]
    return Trace(header, events)
