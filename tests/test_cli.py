import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from fleetsim.cli import _build_parser, main
from fleetsim.tasking import TravelTimeGraph
from fleetsim.trace import FLOAT, FLOAT_OR_NULL, SCHEMA, STR, read_trace, write_trace

from _support import ROOT, SCENARIOS

SMOKE = str(SCENARIOS / "smoke_two_robot.yaml")

# key path -> edit of the smoke scenario that makes that key malformed
MALFORMED = {
    "humans[0]": lambda d: d.update(humans=[5]),
    "rooms[0]": lambda d: d.update(rooms=[7]),
    "locations": lambda d: d.update(locations=5),
    "duration": lambda d: d.update(duration=[1]),
    "agents.a.heading": lambda d: d["agents"]["a"].update(heading="abc"),
    "tick_dt": lambda d: d.update(tick_dt="abc"),
    "roadways[0].from": lambda d: d.update(roadways=[
        {"from": "x", "to": 1, "waypoints": [[1.5, 1.5], [6.5, 6.5]]},
    ]),
    "locations[1]": lambda d: d.update(locations=[[1.5, 1.5], [0.1, 0.1]]),
    "roadways[0].waypoints[1]": lambda d: d.update(roadways=[
        {"from": 0, "to": 1, "waypoints": [[1.5, 1.5], [50.0, 50.0], [6.5, 6.5]]},
    ]),
    "rooms[0].queue_slots[0]": lambda d: d.update(rooms=[{
        "location": 1, "polygon": [[5.5, 5.5], [7.5, 5.5], [7.5, 7.5], [5.5, 7.5]],
        "queue_slots": [[0.1, 6.5]],
    }]),
    "map": lambda d: d.update(map=5),
    "travel_times": lambda d: d.update(travel_times=5),
    "tasks": lambda d: d.update(tasks=5),
    "params.world.max_range": lambda d: d.update(params={"world": {"max_range": "abc"}}),
    "params.world.n_rays": lambda d: d.update(params={"world": {"n_rays": 2.5}}),
    "replan_period": lambda d: d.update(replan_period=float("inf")),
    "params.controller.r_safe": lambda d: d.update(params={"controller": {"r_safe": float("nan")}}),
}

# mapping path -> edit of the smoke scenario that puts a misspelt key in that
# mapping; the top level ("") is named by the scenario file
MISSPELT = {
    "": lambda d: d.update(duraton=5),
    "params": lambda d: d.update(params={"wrld": {"n_rays": 4}}),
    "agents.a": lambda d: d["agents"]["a"].update(haeding=1.0),
    "humans[0]": lambda d: d.update(humans=[{"start": [3.0, 3.0], "v_desierd": 2.0}]),
    "roadways[0]": lambda d: d.update(roadways=[
        {"from": 0, "to": 1, "waypoints": [[1.5, 1.5], [6.5, 6.5]], "waypionts": []},
    ]),
    "rooms[0]": lambda d: d.update(rooms=[{
        "location": 1, "polygon": [[5.5, 5.5], [7.5, 5.5], [7.5, 7.5], [5.5, 7.5]],
        "queue_slots": [[4.5, 6.5]], "slots": [],
    }]),
}


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "smoke.trace"
    code = main(["run", SMOKE, "--out", str(path), "--duration", "3"])
    assert code == 0
    return path


class TestRun:
    def test_writes_trace_and_report(self, tmp_path, capsys):
        out = tmp_path / "run.trace"
        code = main(["run", SMOKE, "--out", str(out), "--duration", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "duration_s" in captured.out
        assert f"trace written to {out}" in captured.out
        trace = read_trace(out)
        assert trace.duration == 2.0

    def test_tasks_override(self, tmp_path, capsys):
        alt = tmp_path / "tasks.json"
        alt.write_text(json.dumps(
            [{"arrival": 0.0, "tasks": [{"start": 0, "end": 1, "deadline": 90.0}]}]
        ))
        out = tmp_path / "run.trace"
        code = main(["run", SMOKE, "--out", str(out), "--duration", "1",
                     "--tasks", str(alt)])
        assert code == 0
        arrivals = [e for e in read_trace(out).events
                    if e["type"] == "task" and e["event"] == "arrival"]
        assert len(arrivals) == 1 and arrivals[0]["deadline"] == 90.0

    def test_missing_scenario_is_filesystem_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "t")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("- just\n- a list\n")
        code = main(["run", str(bad), "--out", str(tmp_path / "t")])
        assert code == 2
        assert "top level" in capsys.readouterr().err

    def test_timing_flag_adds_durations(self, tmp_path):
        out = tmp_path / "timed.trace"
        assert main(["run", SMOKE, "--out", str(out), "--duration", "1",
                     "--timing"]) == 0
        qp_events = [e for e in read_trace(out).events if e["type"] == "qp"]
        assert qp_events and all("duration" in e for e in qp_events)

    @pytest.mark.parametrize("timing", [True, False], ids=["on", "off"])
    def test_timing_counts_each_solve_once(self, tmp_path, capsys, timing):
        """``run`` prints the report ``report`` prints for the written trace,
        byte for byte, then one status line."""
        out = tmp_path / "run.trace"
        assert main(["run", SMOKE, "--out", str(out), "--duration", "2",
                     *(["--timing"] if timing else [])]) == 0
        *run_report, status = capsys.readouterr().out.splitlines(keepends=True)
        assert main(["report", str(out)]) == 0
        assert "".join(run_report) == capsys.readouterr().out
        assert re.fullmatch(rf"trace written to {re.escape(str(out))} "
                            r"\(realtime factor \S+\)\n", status)
        rows = dict(line.split() for line in run_report)
        solves = sum(int(v) for k, v in rows.items() if k.startswith("qp_solves_cluster_"))
        qp_records = sum(1 for e in read_trace(out).events if e["type"] == "qp")
        if timing:
            assert solves == qp_records > 0
            assert rows["realtime_factor"] != "NA"
        else:
            assert (solves, rows["qp_mean_s"], rows["realtime_factor"]) == (0, "NA", "NA")

    @pytest.mark.parametrize("where", list(MALFORMED))
    def test_malformed_content_names_the_key(self, tmp_path, capsys, where):
        doc = yaml.safe_load((SCENARIOS / "smoke_two_robot.yaml").read_text())
        for key in ("map", "travel_times", "tasks"):
            doc[key] = str(SCENARIOS / doc[key])
        MALFORMED[where](doc)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["run", str(bad), "--out", str(tmp_path / "t")]) == 2
        assert f"error: {where}:" in capsys.readouterr().err

    @pytest.mark.parametrize("where", list(MISSPELT))
    def test_misspelt_key_names_its_mapping(self, tmp_path, capsys, where):
        doc = yaml.safe_load((SCENARIOS / "smoke_two_robot.yaml").read_text())
        for key in ("map", "travel_times", "tasks"):
            doc[key] = str(SCENARIOS / doc[key])
        MISSPELT[where](doc)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["run", str(bad), "--out", str(tmp_path / "t")]) == 2
        assert f"error: {where or bad}: unknown keys [" in capsys.readouterr().err

    def test_travel_table_not_finite(self, tmp_path, capsys):
        rows = [ln.split() for ln in
                (SCENARIOS / "tables" / "smoke_travel.txt").read_text().splitlines()]
        rows[1][1] = rows[2][0] = "inf"
        (tmp_path / "tt.txt").write_text("\n".join(" ".join(r) for r in rows) + "\n")
        doc = yaml.safe_load((SCENARIOS / "smoke_two_robot.yaml").read_text())
        for key in ("map", "tasks"):
            doc[key] = str(SCENARIOS / doc[key])
        doc["travel_times"] = "tt.txt"
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["run", str(bad), "--out", str(tmp_path / "t")]) == 2
        assert "row 1, column 2" in capsys.readouterr().err


class TestRender:
    def test_renders_frames(self, smoke_trace, tmp_path, capsys):
        out = tmp_path / "frames"
        code = main(["render", str(smoke_trace), "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("frame_*.svg"))
        assert len(files) == 4
        assert "wrote 4 frames" in capsys.readouterr().out

    def test_every_flag(self, smoke_trace, tmp_path):
        out = tmp_path / "frames"
        assert main(["render", str(smoke_trace), "--out", str(out),
                     "--every", "1.5"]) == 0
        assert len(list(out.glob("*.svg"))) == 3

    def test_scale_flag(self, smoke_trace, tmp_path):
        out = tmp_path / "frames"
        assert main(["render", str(smoke_trace), "--out", str(out),
                     "--scale", "0.1"]) == 0
        first = (out / "frame_00000.svg").read_text()
        assert 'width="80.00"' in first

    def test_bad_interval(self, smoke_trace, tmp_path, capsys):
        code = main(["render", str(smoke_trace), "--out", str(tmp_path / "f"),
                     "--every", "0"])
        assert code == 2

    @pytest.mark.parametrize("scale", ["0", "-1", "inf", "nan"])
    def test_scale_must_be_positive(self, smoke_trace, tmp_path, capsys, scale):
        out = tmp_path / "f"
        assert main(["render", str(smoke_trace), "--out", str(out), "--scale", scale]) == 2
        assert "meters_per_pixel must be positive" in capsys.readouterr().err
        assert not list(out.glob("*.svg"))

    def test_missing_trace(self, tmp_path, capsys):
        assert main(["render", str(tmp_path / "no.trace"),
                     "--out", str(tmp_path / "f")]) == 3

    @pytest.mark.parametrize("field", ["map", "map.text", "params", "rooms", "robots", "humans"])
    def test_missing_header_field_names_it(self, smoke_trace, tmp_path, capsys, field):
        header_line, rest = smoke_trace.read_text().split("\n", 1)
        header = json.loads(header_line)
        if field == "map.text":
            del header["map"]["text"]
        else:
            del header[field]
        bad = tmp_path / "bad.trace"
        bad.write_text(json.dumps(header) + "\n" + rest)
        out = tmp_path / "f"
        assert main(["render", str(bad), "--out", str(out)]) == 2
        name = "map.text" if field == "map" else field
        expected = {"map.text": "a string", "params": "a mapping"}.get(name, "a list")
        assert capsys.readouterr().err == (
            f"error: {bad}: header {name!r} must be {expected}, got None\n")
        assert not list(out.glob("*.svg"))

    def test_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("not json\n")
        assert main(["render", str(bad), "--out", str(tmp_path / "f")]) == 2


class TestReport:
    def test_text_format(self, smoke_trace, capsys):
        assert main(["report", str(smoke_trace)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("duration_s")
        assert "tasks_completed" in out

    def test_csv_format(self, smoke_trace, capsys):
        assert main(["report", str(smoke_trace), "--format", "csv"]) == 0
        head, body = capsys.readouterr().out.strip().split("\n")
        assert head.split(",")[0] == "duration_s"
        assert body.split(",")[0] == "3"

    def test_missing_trace(self, tmp_path):
        assert main(["report", str(tmp_path / "no.trace")]) == 3

    @pytest.mark.parametrize("lines, message", [
        (["[1]"], "line 1: expected a JSON object, got list"),
        (['{"type": "header"}', "5"], "line 2: expected a JSON object, got int"),
        (['{"type": "header"}', '{"t": 0}'], "line 2: record has no string 'type'"),
    ])
    def test_malformed_record_names_its_line(self, tmp_path, capsys, lines, message):
        bad = tmp_path / "bad.trace"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_cut_off_trace_names_the_missing_end_record(self, busy6_result, tmp_path, capsys):
        full, cut = tmp_path / "full.trace", tmp_path / "cut.trace"
        write_trace(full, busy6_result[1].trace)
        cut.write_text("".join(full.read_text().splitlines(keepends=True)[:200]))
        assert main(["report", str(cut)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cut}: cut off: no end record after 2400 promised ticks\n")
        assert main(["report", str(full)]) == 0

    @pytest.mark.parametrize("field, value, expected", [
        ("control_period", 0, "a finite number > 0, got 0"),
        ("duration", "abc", "a finite number >= 0, got 'abc'"),
        ("robots", 5, "a list, got 5"),
    ])
    def test_malformed_header_value_names_its_field(self, smoke_trace, tmp_path, capsys,
                                                    field, value, expected):
        header, rest = smoke_trace.read_text().split("\n", 1)
        bad = tmp_path / "bad.trace"
        bad.write_text(json.dumps({**json.loads(header), field: value}) + "\n" + rest)
        assert main(["report", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: header {field!r} must be {expected}\n"

    @pytest.mark.parametrize("command", ["report", "render"])
    @pytest.mark.parametrize("kind, edit, problem", [
        ("state", lambda r: r.pop("robots"), "robots: missing"),
        ("state", lambda r: r["robots"][1].__setitem__(1, "x"),
         'robots[1][1]: expected a number, got "x"'),
        ("task", lambda r: r.pop("event"), "event: missing"),
        ("qp", lambda r: r.update(members=5), "members: expected a list, got 5"),
    ], ids=["state-no-robots", "state-x", "task-no-event", "qp-members-5"])
    def test_malformed_event_names_its_line_and_slot(self, smoke_trace, tmp_path, capsys,
                                                     command, kind, edit, problem):
        lines = smoke_trace.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if json.loads(line)["type"] == kind)
        record = json.loads(lines[k])
        edit(record)
        lines[k] = json.dumps(record)
        bad = tmp_path / "bad.trace"
        bad.write_text("\n".join(lines) + "\n")
        extra = ["--out", str(tmp_path / "frames")] if command == "render" else []
        assert main([command, str(bad), *extra]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line {k + 1}: {kind} record at t={record['t']}: {problem}\n")

    def test_header_only_trace_of_a_zero_tick_run_reports(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        assert main(["run", SMOKE, "--out", str(path), "--duration", "0.01"]) == 0
        assert len(path.read_text().splitlines()) == 1
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        assert "ticks                    0\n" in capsys.readouterr().out


def _slots(value, slot, path):
    """(path, slot) of ``value``, a value of ``slot``, and of each slot in it."""
    yield path, slot
    if type(slot) is not str:
        items = slot if type(slot) is tuple else slot * len(value)
        for k, (item, v) in enumerate(zip(items, value)):
            yield from _slots(v, item, f"{path}[{k}]")


def _set(record, path, value):
    """Set the slot at ``path`` (``robots[1][2]``) of ``record`` to ``value``."""
    key, *indices = re.findall(r"\w+", path)
    *outer, last = [key, *map(int, indices)]
    for step in outer:
        record = record[step]
    record[last] = value


@pytest.fixture(scope="module")
def golden_lines(smoke_result, tmp_path_factory):
    """The lines of the golden smoke run's trace."""
    path = tmp_path_factory.mktemp("golden") / "smoke.trace"
    write_trace(path, smoke_result[1].trace)
    return path.read_text().splitlines()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_mutated_golden_record_exits_2_naming_its_line_and_slot(golden_lines, tmp_path_factory,
                                                                  data):
    """One event of a golden run with a key dropped, a slot swapped for a
    value of another type, or a number set to NaN: report exits 2 and names
    the event's line and the slot's path."""
    lines = list(golden_lines)
    k = data.draw(st.integers(1, len(lines) - 1))
    record = json.loads(lines[k])
    required, optional = SCHEMA[record["type"]]
    slots = [found for name, slot in {**required, **optional}.items() if name in record
             for found in _slots(record[name], slot, name)]
    action = data.draw(st.sampled_from(["drop", "swap", "nan"]))
    if action == "drop":
        path = data.draw(st.sampled_from(sorted(required)))
        del record[path]
        problem = "missing"
    elif action == "swap":
        path, slot = data.draw(st.sampled_from(slots))
        value = 5 if slot == STR else "x"
        _set(record, path, value)
        expected = slot if type(slot) is str else (
            f"a list of {len(slot)} items" if type(slot) is tuple else "a list")
        problem = f"expected {expected}, got {json.dumps(value)}"
    else:
        path, slot = data.draw(st.sampled_from(
            [(path, slot) for path, slot in slots if slot in (FLOAT, FLOAT_OR_NULL)]))
        _set(record, path, math.nan)
        problem = f"expected {slot}, got NaN"
    lines[k] = json.dumps(record)
    bad = tmp_path_factory.mktemp("mutated") / "bad.trace"
    bad.write_text("\n".join(lines) + "\n")
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert main(["report", str(bad)]) == 2
    err = stderr.getvalue()
    assert err.startswith(f"error: {bad}: line {k + 1}: {record['type']} record"), err
    assert err.endswith(f": {path}: {problem}\n"), err


class TestCollectTravelTimes:
    def test_measures_smoke_pair(self, tmp_path, capsys):
        out = tmp_path / "table.txt"
        code = main(["collect-travel-times", SMOKE, "--out", str(out)])
        assert code == 0
        assert "measured 2 locations" in capsys.readouterr().out
        graph = TravelTimeGraph.from_text(out.read_text())
        assert graph.time(0, 1) > 0
        assert graph.time(0, 1) == graph.time(1, 0)


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_readme_documents_every_flag():
    """The README's command-line section names exactly the parser's flags."""
    section = (ROOT / "README.md").read_text().split("## Command-line interface")[1]
    section = section.split("\n## ")[0]
    documented: dict[str, set[str]] = {}
    for line in section.splitlines():
        command = re.match(r"`fleetsim ([a-z-]+)", line)
        if command:
            flags = documented.setdefault(command.group(1), set())
        if documented:
            flags.update(re.findall(r"--[a-z][a-z-]*", line))
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == parsed


def test_a_run_leaves_scipy_linalg_unloaded(tmp_path):
    """Every QP solves on its diagonal: neither importing fleetsim, nor a run,
    nor a checked solve loads scipy.linalg."""
    code = (
        "import sys\n"
        "from fleetsim.cli import main\n"
        "from fleetsim.qp import solve_qp\n"
        f"main(['run', {SMOKE!r}, '--out', {str(tmp_path / 'run.trace')!r}])\n"
        "solve_qp([2.0, 2e4], [1.0, 1.0], [[(0, 1.0), (1, 1.0)]], [1.0])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "[]"
