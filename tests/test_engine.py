import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
import yaml

import fleetsim.engine as engine
import fleetsim.safety as safety
import fleetsim.scenario as scenario_module
import fleetsim.tasking as tasking
from fleetsim.cli import main
from fleetsim.dynamics import Control, RobotState
from fleetsim.engine import measure_travel_time, run
from fleetsim.metrics import compute_metrics
from fleetsim.planner import PlanningError
from fleetsim.safety import stop_control
from fleetsim.scenario import load_scenario
from fleetsim.trace import dumps_record, read_trace, write_trace
from fleetsim.world import ObstaclePointSet

from _support import ROOT, SCENARIOS

SEALED_MAP = (
    "map 10 10 0.5 0 0\n"
    "##########\n"
    "#........#\n"
    "#........#\n"
    "#........#\n"
    "#........#\n"
    "#........#\n"
    "#...####.#\n"
    "#...#..#.#\n"
    "#...#..#.#\n"
    "##########\n"
)


OPEN_MAP = "map 16 8 0.5 0 0\n" + "................\n" * 8


def write_open_scenario(base, doc: dict, tasks: list | None = None):
    """A scenario on the open 8 m x 4 m map, with a two-location table."""
    (base / "m.map").write_text(OPEN_MAP)
    (base / "tt.txt").write_text("0 1\n0 5\n5 0\n")
    (base / "tasks.json").write_text(json.dumps(tasks or []))
    doc = {"map": "m.map", "travel_times": "tt.txt", "tasks": "tasks.json", **doc}
    path = base / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def overflow_scenario(base):
    """Two robots on the open map; b's v_max is 1e300."""
    return write_open_scenario(base, {
        "agents": {"a": {"start": [1.0, 2.0]},
                   "b": {"start": [5.0, 2.0], "params": {"v_max": 1.0e+300}}},
        "locations": [[1.0, 2.0], [7.0, 2.0]],
        "duration": 1,
    }, tasks=[{"arrival": 0, "tasks": [{"start": 1, "end": 0, "deadline": 100}]}])


def overflowing_states() -> list[RobotState]:
    """States that overflow in the first and in the third RK4 substep of the
    next control period of overflow_scenario's robots."""
    top = sys.float_info.max
    return [RobotState(1.79e308, 1.0, 0.0, 1e308),
            RobotState(top - 2 * math.ulp(top), 2.0, 0.0, 1e294)]


@pytest.fixture(scope="module")
def sealed_scenario(tmp_path_factory):
    """One robot walled into a chamber; its task pickup lies outside."""
    base = tmp_path_factory.mktemp("sealed")
    (base / "m.map").write_text(SEALED_MAP)
    (base / "tt.txt").write_text("0 1\n0 5\n5 0\n")
    (base / "tasks.json").write_text(json.dumps(
        [{"arrival": 0.0, "tasks": [{"start": 0, "end": 1, "deadline": 90.0}]}]
    ))
    doc = {
        "map": "m.map",
        "travel_times": "tt.txt",
        "tasks": "tasks.json",
        "agents": {"r0": {"start": [3.0, 1.0]}},
        "locations": [[1.0, 3.0], [2.75, 0.75]],
        "duration": 1.0,
    }
    path = base / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_scenario(path)


class TestHeader:
    def test_structure(self, smoke_result):
        scenario, result = smoke_result
        header = result.trace.header
        assert header["type"] == "header" and header["version"] == 1
        assert header["digest"] == scenario.digest
        assert header["seed"] == scenario.seed
        assert header["timing"] is False
        assert header["map"]["text"] == scenario.map_text
        assert [r["name"] for r in header["robots"]] == ["a", "b"]
        assert header["robots"][0]["r_robot"] == 0.3
        assert [l[0] for l in header["locations"]] == [0, 1]
        for key in ("d_neighbor", "n_rays", "max_range", "r_human"):
            assert key in header["params"]

    def test_rooms_listed(self, rooms_result):
        _, result = rooms_result
        rooms = result.trace.header["rooms"]
        assert [r["location"] for r in rooms] == [0, 1]
        assert all(len(r["queue_slots"]) == 3 for r in rooms)


class TestRunShape:
    def test_tick_accounting(self, smoke_result):
        scenario, result = smoke_result
        n_ticks = round(scenario.duration / scenario.control_period)
        end = [e for e in result.trace.events if e["type"] == "end"]
        assert len(end) == 1 and end[0]["ticks"] == n_ticks
        states = list(result.trace.of_type("state"))
        assert len(states) == n_ticks + 1
        assert states[-1]["t"] == scenario.duration
        assert len(list(result.trace.of_type("clusters"))) == n_ticks
        assert result.sim_time == scenario.duration

    def test_state_rows_cover_all_robots(self, smoke_result):
        scenario, result = smoke_result
        first = next(result.trace.of_type("state"))
        assert [row[0] for row in first["robots"]] == [0, 1]
        assert all(len(row) == 5 for row in first["robots"])

    def test_zero_duration_runs_no_ticks(self):
        scenario = load_scenario(SCENARIOS / "smoke_two_robot.yaml", duration=0.0)
        result = run(scenario)
        assert result.trace.events == []
        assert result.sim_time == 0.0

    def test_short_runs_byte_identical(self):
        def run_once():
            scenario = load_scenario(SCENARIOS / "smoke_two_robot.yaml",
                                     duration=5.0)
            result = run(scenario)
            lines = [dumps_record(result.trace.header)]
            lines += [dumps_record(e) for e in result.trace.events]
            return "\n".join(lines)

        assert run_once() == run_once()

    def test_wall_time_positive(self, smoke_result):
        _, result = smoke_result
        assert result.wall_time > 0
        assert result.realtime_factor > 0

    def test_timing_mode_records_solve_durations(self):
        scenario = load_scenario(SCENARIOS / "smoke_two_robot.yaml", duration=2.0)
        result = run(scenario, include_timing=True)
        assert result.trace.header["timing"] is True
        end = [e for e in result.trace.events if e["type"] == "end"][0]
        assert end["wall_time"] > 0
        # one clock reading: the trace and the RunResult hold the same value
        assert end["wall_time"] == result.wall_time
        qp = [e for e in result.trace.events if e["type"] == "qp"]
        assert qp and all(e["duration"] >= 0 for e in qp)

    def test_timing_fields_equal_their_written_values(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "smoke_two_robot.yaml", duration=4.0)
        result = run(scenario, include_timing=True)
        write_trace(tmp_path / "run.trace", result.trace)
        back = read_trace(tmp_path / "run.trace")
        timed = [(k, e, b) for e, b in zip(result.trace.events, back.events)
                 for k in ("duration", "wall_time") if k in e]
        assert len(timed) > 1
        for key, event, read in timed:
            assert event[key] == read[key], (key, event[key].hex())
        assert compute_metrics(result.trace).to_text() == compute_metrics(back).to_text()

    def test_no_timing_fields_without_timing(self, smoke_result):
        _, result = smoke_result
        end = [e for e in result.trace.events if e["type"] == "end"]
        assert len(end) == 1 and "wall_time" not in end[0]
        qp = [e for e in result.trace.events if e["type"] == "qp"]
        assert qp and all("duration" not in e for e in qp)
        assert result.wall_time > 0


class TestTaskFlow:
    def test_single_task_lifecycle(self, smoke_result):
        _, result = smoke_result
        events = [e["event"] for e in result.trace.events
                  if e["type"] == "task" and e["task"] == "t0"]
        assert events[0] == "arrival"
        assert events[-1] == "completed"
        assert events.index("pickup") < events.index("dropoff")

    def test_waypoint_arrivals_emitted(self, smoke_result):
        _, result = smoke_result
        assert any(True for _ in result.trace.of_type("arrival"))

    def test_completion_before_deadline(self, smoke_result):
        scenario, result = smoke_result
        completed = [e for e in result.trace.events
                     if e["type"] == "task" and e["event"] == "completed"]
        assert len(completed) == 1
        deadline = scenario.task_stream[0].tasks[0].deadline
        assert completed[0]["t"] < deadline


class TestFaults:
    def test_unreachable_pickup_faults_robot(self, sealed_scenario):
        result = run(sealed_scenario)
        faults = [e for e in result.trace.events if e["type"] == "fault"]
        assert len(faults) == 1
        assert faults[0]["robot"] == 0
        assert "no path" in faults[0]["error"]

    def test_faulted_robot_stays_put(self, sealed_scenario):
        result = run(sealed_scenario)
        states = list(result.trace.of_type("state"))
        first, last = states[0]["robots"][0], states[-1]["robots"][0]
        assert math.dist(first[1:3], last[1:3]) < 1e-6

    def test_robot_pushed_off_map_faults_and_run_finishes(self, tmp_path):
        # the pedestrian walks through the robot and shoves it across the
        # map's left edge
        path = write_open_scenario(tmp_path, {
            "agents": {"a": {"start": [0.4, 2.0]}},
            "humans": [{"start": [3.0, 2.0], "waypoints": [[-6.0, 2.0]]}],
            "locations": [[0.4, 2.0], [7.5, 2.0]],
            "duration": 10,
        }, tasks=[{"arrival": 0, "tasks": [{"start": 1, "end": 0, "deadline": 100}]}])
        out = tmp_path / "run.trace"
        assert main(["run", str(path), "--out", str(out)]) == 0
        scenario, trace = load_scenario(path), read_trace(out)
        faults = list(trace.of_type("fault"))
        assert len(faults) == 1 and faults[0]["robot"] == 0
        poses = {s["t"]: s["robots"][0] for s in trace.of_type("state")}
        error = faults[0]["error"]
        assert error.startswith("sensing pose (")
        assert error.endswith(") is outside the map bounds")
        pose = [float(v) for v in error[len("sensing pose ("):error.index(")")].split(", ")]
        assert not scenario.grid.in_bounds(*pose)
        assert poses[faults[0]["t"]][1:3] == pytest.approx(pose, abs=1e-8)
        params = scenario.robots[0].params
        for rec in trace.of_type("control"):
            _, x, y, theta, v = poses[rec["t"]]
            if not scenario.grid.in_bounds(x, y):
                assert rec["t"] >= faults[0]["t"]
                stop = stop_control(RobotState(x, y, theta, v), params)
                assert rec["robots"][0][1:] == pytest.approx([stop.a, stop.omega], abs=1e-8)
        assert trace.events[-1]["type"] == "end"

    def test_bad_qp_input_faults_cluster_and_run_finishes(self, tmp_path):
        # one cluster of two robots, one of them active; r_safe**2
        # overflows, so the pair row's h is -inf and the solve raises
        path = write_open_scenario(tmp_path, {
            "agents": {"a": {"start": [1.0, 2.0]}, "b": {"start": [2.5, 2.0]}},
            "locations": [[1.0, 2.0], [7.0, 2.0]],
            "params": {"controller": {"r_safe": 1.0e+200}},
            "duration": 2,
        }, tasks=[{"arrival": 0, "tasks": [{"start": 1, "end": 0, "deadline": 100}]}])
        out = tmp_path / "run.trace"
        assert main(["run", str(path), "--out", str(out)]) == 0
        trace = read_trace(out)
        faults = list(trace.of_type("fault"))
        assert sorted(f["robot"] for f in faults) == [0, 1]
        assert {f["error"] for f in faults} == {"safety: non-finite constraints"}
        assert {f["t"] for f in faults} == {0.0}
        assert not list(trace.of_type("qp"))
        assert trace.events[-1]["type"] == "end"

    def test_overflowing_hit_faults_robot(self, tmp_path, monkeypatch):
        # a finite sensed point so far off that its barrier row overflows:
        # the row builder's error faults the robot, with no warning printed
        path = write_open_scenario(tmp_path, {
            "agents": {"a": {"start": [1.0, 2.0]}},
            "locations": [[1.0, 2.0], [7.0, 2.0]],
            "duration": 1,
        }, tasks=[{"arrival": 0, "tasks": [{"start": 1, "end": 0, "deadline": 100}]}])
        far = ObstaclePointSet(((1e308, 0.0),))
        monkeypatch.setattr(engine, "raycast", lambda *args: far)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(load_scenario(path)).trace
        faults = list(trace.of_type("fault"))
        assert [(f["robot"], f["t"], f["error"]) for f in faults] == [
            (0, 0.0, "safety: non-finite constraints")]
        assert not list(trace.of_type("qp"))
        assert trace.events[-1]["type"] == "end"

    def test_qp_fault_while_moving_brakes(self, tmp_path, monkeypatch):
        # the robot drives for 20 ticks, then senses a point whose row
        # overflows: its control at the fault tick is the braking law at its
        # speed, not the zero control that _fault writes
        path = write_open_scenario(tmp_path, {
            "agents": {"a": {"start": [1.25, 2.25]}},
            "locations": [[1.25, 2.25], [7.0, 2.0]],
            "duration": 3,
        }, tasks=[{"arrival": 0, "tasks": [{"start": 1, "end": 0, "deadline": 100}]}])
        casts = []
        far = ObstaclePointSet(((1e308, 0.0),))
        world_raycast = engine.raycast

        def raycast(*args):
            casts.append(args)
            return far if len(casts) > 20 else world_raycast(*args)

        monkeypatch.setattr(engine, "raycast", raycast)
        scenario = load_scenario(path)
        trace = run(scenario).trace
        faults = list(trace.of_type("fault"))
        assert [(f["robot"], f["error"]) for f in faults] == [
            (0, "safety: non-finite constraints")]
        t = faults[0]["t"]
        assert t > 0
        (state,) = [s["robots"][0] for s in trace.of_type("state") if s["t"] == t]
        (control,) = [c["robots"][0] for c in trace.of_type("control") if c["t"] == t]
        stop = stop_control(RobotState(*state[1:]), scenario.robots[0].params)
        assert stop.a < -0.1
        assert control[1:] == pytest.approx([stop.a, stop.omega], abs=1e-8)

    def test_dynamics_faults_keep_their_substep_order(self, tmp_path):
        """Two robots' states overflow inside one control period.

        Robot 0's first RK4 substep of the period takes x to inf; robot 1's
        speed (its v_max is 1e300) takes x to inf in its third substep. Each
        later substep starting from a non-finite state raises, and each raise
        is a `dynamics` fault record, in substep order, then robot order: 4
        for robot 0 and 2 for robot 1 in that tick, 5 each on every later
        tick. A faulted robot's state stays where it was.
        """
        scenario = load_scenario(overflow_scenario(tmp_path))
        eng = engine._Engine(scenario, include_timing=False)
        planted = overflowing_states()
        integrated = []
        stream_pos = 0
        for k in range(3):
            eng.now = k * scenario.control_period
            stream_pos = eng.phase_arrivals(stream_pos)
            eng.phase_queues()
            eng.phase_replan()
            eng.phase_controls(eng.phase_clusters())
            if k == 0:
                for rt, state in zip(eng.robots, planted):
                    rt.state = state
                eng.robots[1].control = Control(0.0, 0.0)
            start = len(eng.events)
            eng.phase_integrate()
            integrated.append([(e["type"], e["t"], e["robot"], e["error"])
                               for e in eng.events[start:]])
            eng.phase_bookkeeping()
        error = "dynamics: non-finite state or control"
        assert integrated == [
            [("fault", 0.0, r, error) for r in (0, 0, 0, 1, 0, 1)],
            [("fault", 0.05, r, error) for r in (0, 1) * 5],
            [("fault", 0.1, r, error) for r in (0, 1) * 5],
        ]
        states = [[v.hex() for v in (rt.state.x, rt.state.y, rt.state.theta, rt.state.v)]
                  for rt in eng.robots]
        assert states == [
            ["inf", "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
            ["inf", "0x1.0000000000000p+1", "0x0.0p+0", "0x1.90d56b873f4c7p+976"],
        ]
        assert all(rt.control == Control(0.0, 0.0) and rt.fault == error
                   for rt in eng.robots)

    def test_an_overflowed_run_exits_2_at_its_first_unwritable_record(
            self, tmp_path, monkeypatch, capsys):
        """`fleetsim run` with the robots planted as above: the first state
        record after the overflow holds inf. The run ends with exit 2 and
        write_trace's message, not a traceback, and the file keeps the
        lines before that record."""
        integrate = engine._Engine.phase_integrate

        def plant_then_integrate(eng):
            if eng.now == 0.0:
                for rt, state in zip(eng.robots, overflowing_states()):
                    rt.state = state
                eng.robots[1].control = Control(0.0, 0.0)
            integrate(eng)

        monkeypatch.setattr(engine._Engine, "phase_integrate", plant_then_integrate)
        out = tmp_path / "run.trace"
        assert main(["run", str(overflow_scenario(tmp_path)), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = out.read_text().splitlines()
        assert captured.err == (
            f"error: {out}: line {len(lines) + 1}: state record at t=0.05: "
            "non-finite value in trace record: inf\n")
        assert captured.out == ""
        # the tick-0 dynamics faults, and robot 1's task let go, are written
        tail = [json.loads(line) for line in lines[-7:]]
        assert [(r["type"], r["t"]) for r in tail] == [("fault", 0)] * 6 + [("task", 0)]
        assert tail[-1]["event"] == "unassigned"

    def test_faulted_robot_task_goes_to_the_robot_left(self, tmp_path):
        """A robot that faults leaves the fleet: its task is re-solved at once.

        The smoke scenario with robot b faulting at t=0, plus a second task
        arriving later, which only robot a may take. b starts 1.5 m short of
        the pickup so that, parked, it does not block it for robot a.
        """
        doc = yaml.safe_load((SCENARIOS / "smoke_two_robot.yaml").read_text())
        for key in ("map", "travel_times"):
            doc[key] = str(SCENARIOS / doc[key])
        (tmp_path / "tasks.json").write_text(json.dumps([
            {"arrival": 0, "tasks": [{"start": 1, "end": 0, "deadline": 60}]},
            {"arrival": 5, "tasks": [{"start": 1, "end": 0, "deadline": 200}]},
        ]))
        doc["tasks"] = "tasks.json"
        doc["agents"]["b"] = {"start": [6.5, 5.0], "params": {"r_safe": 1.0e+200}}
        doc["duration"] = 70
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        trace = run(load_scenario(path)).trace
        (fault,) = trace.of_type("fault")
        assert (fault["t"], fault["robot"]) == (0.0, 1)
        assert fault["error"] == "safety: non-finite constraints"
        events = [(e["t"], e["task"], e["event"], e["robot"]) for e in trace.of_type("task")]
        assert events[:3] == [
            (0.0, "t0", "arrival", None), (0.0, "t0", "assigned", 1),
            (0.0, "t0", "assigned", 0),
        ]
        assert [e for e in events if e[2] == "assigned"][2:] == [(5.0, "t1", "assigned", 0)]
        (done,) = [e for e in events if e[1:] == ("t0", "completed", 0)]
        assert done[0] < 60.0


def test_pedestrian_body_uses_controller_r_human(tmp_path):
    """params.controller.r_human sizes the pedestrian in the social-force
    model too, not only in the robots' keep-out."""
    def human_end(r_human, sub):
        base = tmp_path / sub
        base.mkdir()
        path = write_open_scenario(base, {
            "agents": {"a": {"start": [4.0, 3.5]}},  # idle, never moves
            "humans": [{"start": [1.0, 2.5], "waypoints": [[7.0, 2.5]]}],
            "locations": [[0.5, 0.5], [7.5, 0.5]],
            "params": {"controller": {"r_human": r_human}},
            "duration": 4,
        })
        trace = run(load_scenario(path)).trace
        states = list(trace.of_type("state"))
        assert states[0]["robots"] == states[-1]["robots"]
        return states[-1]["humans"][0]

    assert human_end(0.35, "default") != human_end(0.6, "wide")


class TestRoomCoordination:
    def test_grant_sequence(self, rooms_result):
        _, result = rooms_result
        grants = [(e["t"], e["room"], e["robot"])
                  for e in result.trace.events
                  if e["type"] == "queue" and e["event"] == "grant"]
        assert [(r, rid) for _, r, rid in grants] == [
            (0, 1), (0, 3), (1, 2), (1, 0),
        ]
        assert [t for t, _, _ in grants] == pytest.approx(
            [3.75, 28.65, 63.7, 93.4], abs=1e-9,
        )

    def test_every_grant_was_requested_first(self, rooms_result):
        _, result = rooms_result
        queue = [e for e in result.trace.events if e["type"] == "queue"]
        requested_at = {}
        for e in queue:
            key = (e["room"], e["robot"])
            if e["event"] == "request":
                requested_at.setdefault(key, e["t"])
            elif e["event"] == "grant":
                assert key in requested_at
                assert e["t"] >= requested_at[key]

    def test_room_occupancy_never_exceeds_one(self, rooms_result):
        _, result = rooms_result
        holders = {}
        for e in result.trace.events:
            if e["type"] != "queue":
                continue
            room = e["room"]
            if e["event"] == "grant":
                assert holders.get(room) is None
                holders[room] = e["robot"]
            elif e["event"] == "release":
                assert holders.get(room) == e["robot"]
                holders[room] = None

    def test_all_grants_released(self, rooms_result):
        _, result = rooms_result
        queue = [e for e in result.trace.events if e["type"] == "queue"]
        assert len([e for e in queue if e["event"] == "grant"]) == 4
        assert len([e for e in queue if e["event"] == "release"]) == 4

    def test_all_room_tasks_complete(self, rooms_result):
        _, result = rooms_result
        completed = {e["task"]: e["t"] for e in result.trace.events
                     if e["type"] == "task" and e["event"] == "completed"}
        assert completed == pytest.approx({
            "t0": 14.25, "t2": 14.3, "t1": 39.6, "t3": 83.2, "t4": 99.7,
        }, abs=1e-9)
        assert not any(e["event"] == "missed" for e in result.trace.events
                       if e["type"] == "task")

    def test_contention_trace_digest(self, tmp_path):
        """Six deliveries into room 0 fill its queue, and robots move up a
        slot as those ahead leave: the only pinned trace with ``position``
        records."""
        tasks = tmp_path / "tasks.json"
        tasks.write_text(json.dumps([
            {"arrival": 0, "tasks": [{"start": s, "end": 0, "deadline": 900}
                                     for s in (2, 3, 2, 3)]},
            {"arrival": 5, "tasks": [{"start": s, "end": 0, "deadline": 900}
                                     for s in (2, 3)]},
        ]))
        scenario = load_scenario(
            SCENARIOS / "rooms_four_robot.yaml", tasks_path=tasks, duration=300
        )
        trace = run(scenario).trace
        queue = [(e["event"], e["robot"], e["index"]) for e in trace.of_type("queue")]
        assert [q for q in queue if q[0] == "position"] == [
            ("position", 2, 0), ("position", 3, 1), ("position", 3, 0),
        ]
        completed = [e for e in trace.of_type("task") if e["event"] == "completed"]
        assert len(completed) == 6
        text = "".join(dumps_record(r) + "\n" for r in [trace.header, *trace.events])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "20965c8d35298f1b5172f45d1844934f4aef9c0a3387bbf7028eb6d5b83ade0c"
        )

    def test_faulted_holder_leaves_its_queue(self):
        """Robot 1 faults at its grant into room 0: it releases the room in
        the same tick, so robot 3, queued behind it, is granted."""
        scenario = load_scenario(SCENARIOS / "rooms_four_robot.yaml", duration=200)
        eng = engine._Engine(scenario, include_timing=False)
        stream_pos = 0
        for k in range(round(scenario.duration / scenario.control_period)):
            eng.now = k * scenario.control_period
            stream_pos = eng.phase_arrivals(stream_pos)
            eng.phase_queues()
            if eng.now == 3.75:
                assert eng.events[-1]["event"] == "grant"
                assert eng.events[-1]["robot"] == 1
                eng._fault(eng.robots[1], "injected")
            eng.phase_replan()
            eng.phase_controls(eng.phase_clusters())
            eng.phase_integrate()
            eng.phase_bookkeeping()
        queue = [(round(e["t"], 9), e["event"], e["robot"], e["holder"])
                 for e in eng.events if e["type"] == "queue" and e["room"] == 0]
        assert queue == [
            (3.75, "request", 1, 1), (3.75, "grant", 1, 1),
            (3.75, "release", 1, None),
            (8.35, "request", 3, 3), (8.35, "grant", 3, 3),
            (27.0, "release", 3, None),
        ]
        completed = {e["task"]: e["t"] for e in eng.events
                     if e["type"] == "task" and e["event"] == "completed"}
        assert completed["t1"] == pytest.approx(22.9, abs=1e-9)


class TestDepotScenario:
    def test_six_robot_run_completes_all_tasks(self, depot_result):
        scenario, result = depot_result
        report = compute_metrics(result.trace)
        assert report.tasks_arrived == 6
        assert report.tasks_completed == 6
        assert report.tasks_missed == 0
        assert report.tasks_unassigned == 0
        assert report.faults == 0
        assert report.fallback_fraction == 0.0
        assert report.completion_times == [
            31.55, 47.7, 60.6, 82.25, 112.4, 123.25,
        ]
        params = scenario.robots[0].params
        assert report.min_robot_distance >= params.r_safe - 0.05
        assert report.min_obstacle_distance >= params.r_robot - 0.05


class TestTravelTimeMeasurement:
    def test_smoke_pair_roundtrip(self):
        scenario = load_scenario(SCENARIOS / "smoke_two_robot.yaml")
        t = measure_travel_time(scenario, 0, 1)
        # 7.07 m diagonal at 1 m/s plus turn-in-place and arrival slack
        assert 6.0 < t < 20.0

    def test_same_location_is_zero(self):
        scenario = load_scenario(SCENARIOS / "smoke_two_robot.yaml")
        assert measure_travel_time(scenario, 0, 0) == 0.0

    def test_unknown_location(self):
        scenario = load_scenario(SCENARIOS / "smoke_two_robot.yaml")
        with pytest.raises(KeyError, match="unknown location 9"):
            measure_travel_time(scenario, 0, 9)

    def test_timeout_raises(self):
        scenario = load_scenario(SCENARIOS / "smoke_two_robot.yaml")
        with pytest.raises(PlanningError, match="no arrival"):
            measure_travel_time(scenario, 0, 1, timeout=0.01)

    def test_unreachable_pair(self, sealed_scenario):
        with pytest.raises(PlanningError, match="unreachable"):
            measure_travel_time(sealed_scenario, 0, 1)


# SHA-256 of the serialized trace of each bundled scenario, of the
# six-robot busy fleet (_support.busy_fleet_scenario) and of the 60 s rooms
# run with three pedestrians (_support.crowd_scenario). The bytes depend on
# IEEE-754 arithmetic and libm (sin, cos, atan2, exp, hypot); these were
# frozen on x86-64 Linux with glibc and Python 3.11.7. On another libm a
# mismatch may be rounding rather than a behaviour change.
GOLDEN_DIGESTS = {
    "smoke_result": "1a92d8e812d6a3bf777c17253af496f4dfaf715d3ced1c209a3aabcf25c9b7ef",
    "corridors_result": "c147c00bf22d981dcf8434d7eb214633853105221c34ec4348bb884dd35376a0",
    "rooms_result": "12a4f783333b7cfb291baa260bb58660beb5de48972bb2974d9e7962d4ab2d85",
    "depot_result": "99d2ad284f654c587ffd716ca5d69a9249fb2144714043e63ec900554a2e9a07",
    "busy6_result": "66da33c8c3240da2dc1372199c1a98c38ddfd62a9605bd5f530f390fc3ac1d58",
    "crowd_result": "68b3766c83fdf7963915f4ade25b0283b3f9ecbd4c2c29e8932d4ca6c85d5ea6",
}


# Per record type, the first 16 hex digits of the SHA-256 over that type's
# serialized lines, in trace order. They only say where a digest moved.
GOLDEN_TYPE_PREFIXES = {
    "smoke_result": {
        "arrival": "d9ca330aa170881b", "clusters": "b564dcd5feef5d63",
        "control": "fc27533b0fa3be8b", "end": "6cffa70593f7e9ac",
        "header": "0ccf561962f890be", "plan": "1b6b4f8b4bb61602",
        "qp": "0269d262f6b6609f", "state": "c981a570253cf8cf",
        "task": "8eabfd002dd73e4b",
    },
    "corridors_result": {
        "arrival": "464e2790cf6a3d9a", "clusters": "26fbea4fe9382379",
        "control": "81066e9c0892a63b", "end": "13190c56d83022a7",
        "header": "7a255d58f1e2ecef", "plan": "40921d97ada375fa",
        "qp": "b7045a444426543c", "state": "ee0ba9f1af6b6278",
        "task": "d3f9013c767d2404",
    },
    "rooms_result": {
        "arrival": "f2bb51183839257c", "clusters": "a84c1e802ea61b31",
        "control": "ca5ccb123dbab069", "end": "da826fb64040c4a8",
        "header": "ade588fd92459085", "plan": "6f6be64c2cbc83ad",
        "qp": "a74a231f9b772b53", "queue": "b7bddb5435bfbb04",
        "state": "a2d3cb0cc6e57b96", "task": "aecdf9de7968847f",
    },
    "depot_result": {
        "arrival": "484c7b843fe62ac1", "clusters": "afddac52f636c265",
        "control": "42de05ae1cd4d560", "end": "e4aad65b0dfad0ec",
        "header": "f3010c833d32f9cf", "plan": "e51a6983f5c9b0b0",
        "qp": "92c956d639e71d82", "state": "78cd7560ad81fc80",
        "task": "ff3d3daeab1af2ba",
    },
    "busy6_result": {
        "arrival": "1bf166b0d8235984", "clusters": "397cca9ff640e13c",
        "control": "0964658e06c59905", "end": "7033ee576deaf238",
        "header": "c5ecb943df246708", "plan": "e9c7aab858c20233",
        "qp": "d1b82c9af037e17f", "state": "aa834fab6a0017e8",
        "task": "f31f3cfd169506a9",
    },
    "crowd_result": {
        "arrival": "956014d1600db397", "clusters": "11bd56d21e43d2be",
        "control": "20a7ff1598062c6e", "end": "d53d09ee257c63cf",
        "header": "69285ecb32f1fe50", "plan": "c048eb4459642069",
        "qp": "67d64a63830d3ec9", "queue": "013bd853291c5378",
        "state": "3d86947f301b4df4", "task": "5513dfa07cb9b4cd",
    },
}


def _moved_types(records: list[dict], pinned: dict[str, str]) -> list[str]:
    """Record types whose lines no longer hash to their pinned prefix,
    including types that appeared or disappeared."""
    shas = {}
    for r in records:
        shas.setdefault(r["type"], hashlib.sha256()).update(
            (dumps_record(r) + "\n").encode())
    got = {kind: sha.hexdigest()[:16] for kind, sha in shas.items()}
    return sorted(k for k in got.keys() | pinned.keys() if got.get(k) != pinned.get(k))


@pytest.mark.parametrize("fixture", list(GOLDEN_DIGESTS))
def test_golden_trace_digest(fixture, request):
    _, result = request.getfixturevalue(fixture)
    records = [result.trace.header, *result.trace.events]
    text = "".join(dumps_record(r) + "\n" for r in records)
    moved = _moved_types(records, GOLDEN_TYPE_PREFIXES[fixture])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[fixture], (
        f"trace of {fixture} moved; record types that moved: {moved}")
    assert moved == [], "per-type prefixes are stale for an unchanged trace"


def test_golden_digest_holds_under_another_blas_kernel(busy6_result):
    """No byte depends on the BLAS kernel: a busy-fleet run in a process
    whose OpenBLAS takes its Prescott kernel writes this process's trace."""
    _, result = busy6_result
    records = [result.trace.header, *result.trace.events]
    here = hashlib.sha256("".join(dumps_record(r) + "\n" for r in records).encode())
    code = (
        "import hashlib\n"
        "from _support import busy_fleet_scenario\n"
        "from fleetsim.engine import run\n"
        "from fleetsim.trace import dumps_record\n"
        "trace = run(busy_fleet_scenario(6)).trace\n"
        "text = ''.join(dumps_record(r) + '\\n' for r in [trace.header, *trace.events])\n"
        "print(hashlib.sha256(text.encode()).hexdigest())\n"
    )
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests"),
         *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == [here.hexdigest()]


def test_moved_types_name_the_changed_record_type(smoke_result):
    _, result = smoke_result
    records = [result.trace.header, *result.trace.events]
    pinned = GOLDEN_TYPE_PREFIXES["smoke_result"]
    assert _moved_types(records, pinned) == []
    k = next(i for i, r in enumerate(records) if r["type"] == "qp")
    bumped = records[:k] + [{**records[k], "rows": records[k]["rows"] + 1}] + records[k + 1:]
    assert _moved_types(bumped, pinned) == ["qp"]
    no_end = [r for r in records if r["type"] != "end"]
    assert _moved_types(no_end, pinned) == ["end"]


def test_benchmark_span_names_resolve():
    """The span tracer in perfbench/spans.py wraps every name it patches and
    puts each original back."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    owners = (engine, safety, scenario_module, tasking, tasking.Dispatcher)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        tracer.install()  # AttributeError when a patched name is gone
        patched = {attr for owner, attr, _ in tracer._restore if owner is engine}
        assert {attr for attr, _ in spans.ENGINE_NAMES} <= patched
        for owner, attr, original in tracer._restore:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert now.keys() == names.keys()
        assert [k for k in names if now[k] is not names[k]] == []
