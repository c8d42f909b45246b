import argparse
import json
import re

import pytest
import yaml

from fleetsim.cli import _build_parser, main
from fleetsim.tasking import TravelTimeGraph
from fleetsim.trace import read_trace

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
