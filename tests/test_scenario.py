import hashlib
import json
import re

import pytest
import yaml

from fleetsim.safety import ControllerParams
from fleetsim.scenario import (
    ScenarioError,
    WorldParams,
    load_scenario,
    load_task_stream,
)

from _support import SCENARIOS, grid_view

FREE_MAP = "map 16 16 0.5 0 0\n" + ("." * 16 + "\n") * 16

TASKS_JSON = json.dumps([
    {"arrival": 0.0, "tasks": [{"start": 0, "end": 1, "deadline": 50.0}]},
    {"arrival": 2.0, "tasks": [{"start": 1, "end": 0, "deadline": 60.0}]},
])

TABLE = "0 1\n0 2.5\n2.5 0\n"


def base_doc():
    return {
        "map": "m.map",
        "travel_times": "tt.txt",
        "tasks": "tasks.json",
        "agents": {
            "alpha": {"start": [1.0, 1.0]},
            "beta": {"start": [6.0, 6.0], "heading": 1.5},
        },
        "locations": [[1.0, 1.0], [6.0, 6.0]],
        "duration": 5.0,
        "seed": 7,
    }


def write_scenario(tmp_path, doc, map_text=FREE_MAP, tasks=TASKS_JSON, table=TABLE):
    (tmp_path / "m.map").write_text(map_text)
    (tmp_path / "tasks.json").write_text(tasks)
    (tmp_path / "tt.txt").write_text(table)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestWorldParams:
    def test_defaults(self):
        w = WorldParams()
        assert w.d_neighbor == 3.0
        assert w.n_rays == 16
        assert w.max_range == 3.0
        assert w.cost_weight == 3.0
        assert w.inflation_radius == 1.0
        assert w.cost_scale == 3.0
        assert w.release_distance == 2.0
        assert w.queue_request_factor == 1.5

    @pytest.mark.parametrize("field", [
        "d_neighbor", "max_range", "cost_weight", "cost_scale",
        "release_distance", "queue_request_factor",
    ])
    def test_positive_fields(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            WorldParams(**{field: 0.0})

    def test_n_rays_minimum(self):
        with pytest.raises(ValueError, match="n_rays"):
            WorldParams(n_rays=0)

    def test_inflation_radius_may_be_zero(self):
        assert WorldParams(inflation_radius=0.0).inflation_radius == 0.0
        with pytest.raises(ValueError, match="inflation_radius"):
            WorldParams(inflation_radius=-0.1)


class TestTaskStream:
    def test_parses_batches(self):
        stream = load_task_stream(TASKS_JSON)
        assert [r.arrival for r in stream] == [0.0, 2.0]
        task = stream[0].tasks[0]
        assert (task.start, task.end, task.deadline) == (0, 1, 50.0)

    def test_empty_list(self):
        assert load_task_stream("[]") == []

    @pytest.mark.parametrize("text,fragment", [
        ("{", "invalid JSON"),
        ('{"arrival": 0}', "must be a list"),
        ("[1]", "task request 0: expected an object"),
        ('[{"tasks": []}]', "missing required key 'arrival'"),
        ('[{"arrival": 0}]', "missing required key 'tasks'"),
        ('[{"arrival": 0, "tasks": {}}]', "'tasks' must be a list"),
        ('[{"arrival": 0, "tasks": [5]}]', "task request 0, task 0: expected an object"),
        ('[{"arrival": 0, "tasks": [{"start": 1, "end": 2}]}]',
         "missing required key 'deadline'"),
        ('[{"arrival": [0], "tasks": []}]', "task request 0: arrival"),
        ('[{"arrival": 0, "tasks": [{"start": [1], "end": 2, "deadline": 9}]}]',
         "task request 0, task 0: start"),
        ('[{"arrival": 0, "tasks": [{"start": 0.7, "end": 2, "deadline": 9}]}]',
         "task request 0, task 0: start: expected an integer"),
        ('[{"arrival": 0, "tasks": [{"start": true, "end": 2, "deadline": 9}]}]',
         "task request 0, task 0: start: expected an integer"),
        ('[{"arrival": 0, "tasks": [{"start": 1, "end": 1, "deadline": 9}]}]',
         "task request 0, task 0"),
        ('[{"arrival": 10, "tasks": [{"start": 0, "end": 1, "deadline": 5}]}]',
         "task request 0"),
        ('[{"arrival": 0, "tasks": [], "arival": 1}]',
         r"^task request 0: unknown keys \['arival'\]$"),
        ('[{"arrival": 0, "tasks": [{"start": 0, "end": 1, "deadline": 9, "dedline": 5}]}]',
         r"^task request 0, task 0: unknown keys \['dedline'\]$"),
    ])
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            load_task_stream(text)

    def test_rejects_decreasing_arrivals(self):
        text = json.dumps([
            {"arrival": 5.0, "tasks": []},
            {"arrival": 1.0, "tasks": []},
        ])
        with pytest.raises(ScenarioError, match="non-decreasing"):
            load_task_stream(text)


class TestLoadScenario:
    def test_minimal_document(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, base_doc()))
        assert [r.name for r in sc.robots] == ["alpha", "beta"]
        assert sc.robots[0].start == (1.0, 1.0)
        assert sc.robots[0].heading == 0.0
        assert sc.robots[1].heading == 1.5
        assert sc.roadways.locations == {0: (1.0, 1.0), 1: (6.0, 6.0)}
        assert sc.humans == [] and sc.rooms == {}
        assert sc.travel_graph.time(0, 1) == 2.5
        assert len(sc.task_stream) == 2
        assert (sc.tick_dt, sc.control_period, sc.replan_period) == (0.01, 0.05, 1.0)
        assert (sc.duration, sc.seed) == (5.0, 7)
        assert sc.map_text == FREE_MAP
        assert sc.grid.width == 16 and grid_view(sc.grid, sc.costmap.cost).shape == (16, 16)

    def test_digest_covers_scenario_map_and_tasks(self, tmp_path):
        path = write_scenario(tmp_path, base_doc())
        sc = load_scenario(path)
        expected = hashlib.sha256(
            (path.read_text() + "\x00" + FREE_MAP + "\x00" + TASKS_JSON).encode()
        ).hexdigest()
        assert sc.digest == expected
        assert load_scenario(path).digest == expected

    def test_digest_changes_with_tasks_file(self, tmp_path):
        path = write_scenario(tmp_path, base_doc())
        before = load_scenario(path).digest
        (tmp_path / "tasks.json").write_text("[]")
        assert load_scenario(path).digest != before

    def test_controller_defaults_and_per_robot_override(self, tmp_path):
        doc = base_doc()
        doc["params"] = {"controller": {"v_max": 0.5}}
        doc["agents"]["beta"]["params"] = {"v_max": 0.9, "r_robot": 0.2}
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.robots[0].params.v_max == 0.5
        assert sc.robots[0].params.r_robot == ControllerParams().r_robot
        assert sc.robots[1].params.v_max == 0.9
        assert sc.robots[1].params.r_robot == 0.2

    def test_world_params_section(self, tmp_path):
        doc = base_doc()
        doc["params"] = {"world": {"n_rays": 8, "max_range": 2.0}}
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.world.n_rays == 8 and sc.world.max_range == 2.0

    def test_unknown_world_param(self, tmp_path):
        doc = base_doc()
        doc["params"] = {"world": {"bogus": 1}}
        with pytest.raises(ScenarioError, match="params.world"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_controller_param(self, tmp_path):
        doc = base_doc()
        doc["agents"]["alpha"]["params"] = {"warp_speed": 3}
        with pytest.raises(ScenarioError, match="unknown controller parameters"):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("where,key,edit", [
        (None, "duraton", lambda d: d.update(duraton=5)),
        (None, "room", lambda d: d.update(room=[])),
        ("params", "wrld", lambda d: d.update(params={"wrld": {"n_rays": 4}})),
        ("agents.beta", "haeding", lambda d: d["agents"]["beta"].update(haeding=1.0)),
        ("humans[0]", "v_desierd",
         lambda d: d.update(humans=[{"start": [4.0, 4.0], "v_desierd": 2.0}])),
        ("roadways[0]", "waypionts", lambda d: d.update(roadways=[
            {"from": 0, "to": 1, "waypoints": [[1.0, 1.0], [6.0, 6.0]], "waypionts": []},
        ])),
        ("rooms[0]", "slots", lambda d: d.update(rooms=[{
            "location": 1, "polygon": [[5.0, 5.0], [7.0, 5.0], [7.0, 7.0]],
            "queue_slots": [[3.0, 6.0]], "slots": [],
        }])),
    ])
    def test_unknown_key(self, tmp_path, where, key, edit):
        """A misspelt optional key is an error, not a silent default; the
        top level is named by the scenario file."""
        doc = base_doc()
        edit(doc)
        path = write_scenario(tmp_path, doc)
        context = re.escape(where or str(path))
        with pytest.raises(ScenarioError, match=rf"^{context}: unknown keys \['{key}'\]$"):
            load_scenario(path)

    def test_unknown_keys_sort_as_text(self, tmp_path):
        path = write_scenario(tmp_path, base_doc())
        path.write_text(path.read_text() + "zz: 1\n2: 1\n10: 1\n")
        with pytest.raises(ScenarioError, match=r"unknown keys \[10, 2, 'zz'\]$"):
            load_scenario(path)

    def test_humans_parsed(self, tmp_path):
        doc = base_doc()
        doc["humans"] = [
            {"start": [4.0, 4.0], "waypoints": [[4.0, 6.0]], "v_desired": 0.8},
            {"start": [2.0, 2.0]},
        ]
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.humans[0].waypoints == ((4.0, 6.0),)
        assert sc.humans[0].v_desired == 0.8
        assert sc.humans[1].waypoints == () and sc.humans[1].v_desired == 1.0

    def test_roadways_parsed_and_validated(self, tmp_path):
        doc = base_doc()
        doc["roadways"] = [
            {"from": 0, "to": 1, "waypoints": [[1.0, 1.0], [6.0, 1.0], [6.0, 6.0]]},
        ]
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.roadways.route(0, 1) == [(1.0, 1.0), (6.0, 1.0), (6.0, 6.0)]

    def test_roadway_unknown_location(self, tmp_path):
        doc = base_doc()
        doc["roadways"] = [{"from": 0, "to": 9, "waypoints": [[1.0, 1.0]]}]
        with pytest.raises(ScenarioError, match="unknown location 9"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_roadway_detached_endpoint(self, tmp_path):
        doc = base_doc()
        doc["roadways"] = [
            {"from": 0, "to": 1, "waypoints": [[1.0, 1.0], [5.0, 5.0]]},
        ]
        with pytest.raises(ScenarioError, match=r"roadways\[0\]: does not end"):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("waypoints,fragment", [
        pytest.param([[3.0, 3.0], [6.0, 6.0]], "does not start at location 0", id="start"),
        pytest.param([[1.0, 1.0], [3.0, 3.0]], "does not end at location 1", id="end"),
        pytest.param([], "waypoints must not be empty", id="empty"),
    ])
    def test_roadway_must_join_its_locations(self, tmp_path, waypoints, fragment):
        doc = base_doc()
        doc["roadways"] = [
            {"from": 1, "to": 0, "waypoints": [[6.0, 6.0], [1.0, 1.0]]},
            {"from": 0, "to": 1, "waypoints": waypoints},
        ]
        with pytest.raises(ScenarioError, match=rf"roadways\[1\]: {fragment}"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_roadway_repeated_pair(self, tmp_path):
        doc = base_doc()
        doc["roadways"] = [
            {"from": 0, "to": 1, "waypoints": [[1.0, 1.0], [6.0, 6.0]]},
            {"from": 1, "to": 0, "waypoints": [[6.0, 6.0], [1.0, 1.0]]},
            {"from": 0, "to": 1, "waypoints": [[1.0, 1.0], [1.0, 6.0], [6.0, 6.0]]},
        ]
        with pytest.raises(
            ScenarioError, match=r"^roadways\[2\] repeats roadways\[0\] \(from 0 to 1\)$"
        ):
            load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("key", [
        "locations[1]", "roadways[0].waypoints[1]", "rooms[0].queue_slots[1]",
    ])
    @pytest.mark.parametrize("point,fragment", [
        pytest.param([3.2, 3.2], "lies on an occupied cell", id="wall"),
        pytest.param([50.0, 50.0], "is outside the map", id="off_map"),
    ])
    def test_plan_points_must_be_free(self, tmp_path, key, point, fragment):
        rows = ["." * 16 for _ in range(16)]
        rows[9] = "......#" + "." * 9  # the cell holding (3.2, 3.2)
        blocked = "map 16 16 0.5 0 0\n" + "\n".join(rows) + "\n"
        doc = base_doc()
        doc["roadways"] = [
            {"from": 0, "to": 1, "waypoints": [[1.0, 1.0], [6.0, 1.0], [6.0, 6.0]]},
        ]
        doc["rooms"] = [{
            "location": 1,
            "polygon": [[5.0, 5.0], [7.0, 5.0], [7.0, 7.0], [5.0, 7.0]],
            "queue_slots": [[3.0, 6.0], [2.0, 6.0]],
        }]
        load_scenario(write_scenario(tmp_path, doc, map_text=blocked))
        if key == "locations[1]":
            doc["locations"][1] = point
        elif key.startswith("roadways"):
            doc["roadways"][0]["waypoints"][1] = point
        else:
            doc["rooms"][0]["queue_slots"][1] = point
        with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: .* {fragment}$"):
            load_scenario(write_scenario(tmp_path, doc, map_text=blocked))

    def test_rooms_parsed(self, tmp_path):
        doc = base_doc()
        doc["rooms"] = [{
            "location": 1,
            "polygon": [[5.0, 5.0], [7.0, 5.0], [7.0, 7.0], [5.0, 7.0]],
            "queue_slots": [[3.0, 6.0], [2.0, 6.0]],
        }]
        sc = load_scenario(write_scenario(tmp_path, doc))
        room = sc.rooms[1]
        assert room.location == 1
        assert len(room.polygon) == 4
        assert room.queue_slots == ((3.0, 6.0), (2.0, 6.0))
        queues = sc.build_queues()
        assert set(queues) == {1}
        assert queues[1].slots == [(3.0, 6.0), (2.0, 6.0)]
        assert queues[1].room_position == (6.0, 6.0)

    @pytest.mark.parametrize("entry,fragment", [
        ({"location": 5, "polygon": [[0, 0], [1, 0], [1, 1]], "queue_slots": [[0, 0]]},
         "unknown location 5"),
        ({"location": 0, "polygon": [[0, 0], [1, 0]], "queue_slots": [[0, 0]]},
         "at least 3 vertices"),
        ({"location": 0, "polygon": [[0, 0], [1, 0], [1, 1]], "queue_slots": []},
         "queue_slots must not be empty"),
        ({"location": 0, "polygon": [[0, 0], [1, 0], [1, 1]],
          "queue_slots": [[2, 0], [3, 0], [2.0, 0.0]]},
         "queue_slots.2. repeats queue_slots.0."),
    ])
    def test_room_validation(self, tmp_path, entry, fragment):
        doc = base_doc()
        doc["rooms"] = [entry]
        with pytest.raises(ScenarioError, match=fragment):
            load_scenario(write_scenario(tmp_path, doc))

    def test_missing_map_key(self, tmp_path):
        doc = base_doc()
        del doc["map"]
        with pytest.raises(ScenarioError, match="missing required key 'map'"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_invalid_yaml(self, tmp_path):
        path = write_scenario(tmp_path, base_doc())
        path.write_text("a: [unterminated\n")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            load_scenario(path)

    def test_top_level_must_be_mapping(self, tmp_path):
        path = write_scenario(tmp_path, base_doc())
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError, match="top level must be a mapping"):
            load_scenario(path)

    def test_malformed_map_wrapped(self, tmp_path):
        doc = base_doc()
        with pytest.raises(ScenarioError, match="map m.map:"):
            load_scenario(write_scenario(tmp_path, doc, map_text="not a map\n"))

    def test_agents_required_nonempty(self, tmp_path):
        doc = base_doc()
        doc["agents"] = {}
        with pytest.raises(ScenarioError, match="non-empty mapping"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_agent_start_out_of_bounds(self, tmp_path):
        doc = base_doc()
        doc["agents"]["alpha"]["start"] = [90.0, 1.0]
        with pytest.raises(ScenarioError, match="outside the map"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_agent_start_on_occupied_cell(self, tmp_path):
        rows = ["." * 16 for _ in range(16)]
        rows[13] = "..#" + "." * 13
        blocked = "map 16 16 0.5 0 0\n" + "\n".join(rows) + "\n"
        doc = base_doc()
        with pytest.raises(ScenarioError, match="occupied cell"):
            load_scenario(write_scenario(tmp_path, doc, map_text=blocked))

    @pytest.mark.parametrize("v_desired", [0, -1.0])
    def test_human_speed_must_be_positive(self, tmp_path, v_desired):
        doc = base_doc()
        doc["humans"] = [{"start": [2.0, 2.0], "v_desired": 1.0},
                         {"start": [2.0, 3.0], "v_desired": v_desired}]
        with pytest.raises(ScenarioError, match=r"humans\[1\]\.v_desired: must be positive"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_human_start_out_of_bounds(self, tmp_path):
        doc = base_doc()
        doc["humans"] = [{"start": [2.0, -0.5], "waypoints": [[4.0, 4.0]]}]
        with pytest.raises(ScenarioError, match=r"humans\[0\]\.start: .* outside the map"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_human_start_on_occupied_cell(self, tmp_path):
        rows = ["." * 16 for _ in range(16)]
        rows[11] = "...." + "#" + "." * 11  # the cell holding (2.2, 2.2)
        blocked = "map 16 16 0.5 0 0\n" + "\n".join(rows) + "\n"
        doc = base_doc()
        doc["humans"] = [{"start": [2.2, 2.2]}]
        with pytest.raises(ScenarioError, match=r"humans\[0\]\.start: .* occupied cell"):
            load_scenario(write_scenario(tmp_path, doc, map_text=blocked))

    def test_agent_start_not_a_position(self, tmp_path):
        doc = base_doc()
        doc["agents"]["alpha"]["start"] = [1.0, 1.0, 2.0]
        with pytest.raises(ScenarioError, match=r"expected \[x, y\]"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_travel_table_missing_location(self, tmp_path):
        doc = base_doc()
        doc["locations"].append([3.0, 3.0])
        with pytest.raises(ScenarioError, match=r"missing locations \[2\]"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_task_with_unknown_location(self, tmp_path):
        tasks = json.dumps(
            [{"arrival": 0.0, "tasks": [{"start": 0, "end": 4, "deadline": 9.0}]}]
        )
        with pytest.raises(ScenarioError, match="unknown location 4"):
            load_scenario(write_scenario(tmp_path, base_doc(), tasks=tasks))

    def test_tasks_require_travel_graph(self, tmp_path):
        doc = base_doc()
        del doc["travel_times"]
        with pytest.raises(ScenarioError, match="no travel_times graph"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_no_tasks_no_graph_is_fine(self, tmp_path):
        doc = base_doc()
        del doc["travel_times"]
        del doc["tasks"]
        sc = load_scenario(write_scenario(tmp_path, doc))
        assert sc.travel_graph is None and sc.task_stream == []

    def test_timing_validation(self, tmp_path):
        doc = base_doc()
        doc["tick_dt"] = 0.0
        with pytest.raises(ScenarioError, match="must be positive"):
            load_scenario(write_scenario(tmp_path, doc))
        doc["tick_dt"] = 0.03
        with pytest.raises(ScenarioError, match="integer multiple"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_negative_duration(self, tmp_path):
        doc = base_doc()
        doc["duration"] = -1.0
        with pytest.raises(ScenarioError, match="duration must be >= 0"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_cli_overrides_win(self, tmp_path):
        alt = tmp_path / "alt_tasks.json"
        alt.write_text(json.dumps(
            [{"arrival": 1.0, "tasks": [{"start": 1, "end": 0, "deadline": 30.0}]}]
        ))
        path = write_scenario(tmp_path, base_doc())
        sc = load_scenario(path, tasks_path=alt, duration=9.0)
        assert len(sc.task_stream) == 1
        assert sc.task_stream[0].arrival == 1.0
        assert sc.duration == 9.0
        assert sc.digest != load_scenario(path).digest


class TestBundledScenarios:
    @pytest.mark.parametrize("name", [
        "smoke_two_robot", "corridors_two_robot", "depot_six_robot",
        "rooms_four_robot",
    ])
    def test_loads_cleanly(self, name):
        sc = load_scenario(SCENARIOS / f"{name}.yaml")
        assert sc.robots and sc.roadways.locations and sc.travel_graph is not None
        assert sc.task_stream and sc.duration > 0
        assert len(sc.digest) == 64

    def test_rooms_scenario_contents(self):
        sc = load_scenario(SCENARIOS / "rooms_four_robot.yaml")
        assert len(sc.robots) == 4 and len(sc.humans) == 1
        assert set(sc.rooms) == {0, 1}
        assert all(len(r.queue_slots) == 3 for r in sc.rooms.values())
        queues = sc.build_queues()
        assert queues[0].room_position == sc.roadways.locations[0]
