import math

import pytest

from fleetsim.metrics import MetricsReport, QPTimingStats, compute_metrics
from fleetsim.safety import FEASIBLE, INFEASIBLE_FALLBACK
from fleetsim.trace import Trace

# one solid cell spanning x in [2, 3], y in [1, 2]
MAP_TEXT = "map 4 4 1 0 0\n....\n....\n..#.\n....\n"


def make_header(**overrides):
    header = {
        "type": "header",
        "map": {"text": MAP_TEXT},
        "robots": [{"id": 0}, {"id": 1}],
        "duration": 5.0,
        "control_period": 0.05,
    }
    header.update(overrides)
    return header


def state(t, positions):
    return {
        "type": "state",
        "t": t,
        "robots": [[i, x, y, 0.0, 0.0] for i, (x, y) in enumerate(positions)],
    }


class TestDistances:
    def test_minima_over_all_states(self):
        trace = Trace(make_header(), [
            state(0.0, [(0.5, 0.5), (3.5, 0.5)]),
            state(0.1, [(1.0, 1.5), (1.5, 1.5)]),
        ])
        report = compute_metrics(trace)
        assert report.min_robot_distance == pytest.approx(0.5)
        # closest approach: (1.5, 1.5) to the wall face at x = 2
        assert report.min_obstacle_distance == pytest.approx(0.5)

    def test_diagonal_corner_distance(self):
        trace = Trace(make_header(), [state(0.0, [(1.5, 0.5), (3.5, 3.5)])])
        report = compute_metrics(trace)
        assert report.min_obstacle_distance == pytest.approx(math.hypot(0.5, 0.5))

    def test_point_inside_solid_cell_reads_zero(self):
        trace = Trace(make_header(), [state(0.0, [(2.5, 1.5), (0.5, 0.5)])])
        assert compute_metrics(trace).min_obstacle_distance == 0.0

    def test_open_map_leaves_obstacle_distance_unset(self):
        header = make_header(map={"text": "map 2 2 1 0 0\n..\n..\n"})
        trace = Trace(header, [state(0.0, [(0.5, 0.5), (1.5, 1.5)])])
        report = compute_metrics(trace)
        assert report.min_obstacle_distance is None
        assert report.min_robot_distance == pytest.approx(math.sqrt(2.0))

    def test_single_robot_has_no_pair_distance(self):
        header = make_header(robots=[{"id": 0}])
        trace = Trace(header, [{"type": "state", "t": 0.0,
                                "robots": [[0, 0.5, 0.5, 0.0, 0.0]]}])
        report = compute_metrics(trace)
        assert report.min_robot_distance is None
        assert report.min_obstacle_distance is not None


class TestTaskCounters:
    def make_trace(self):
        events = [
            {"type": "task", "event": "arrival", "task": "t0", "robot": None,
             "t": 0.0, "deadline": 30.0},
            {"type": "task", "event": "arrival", "task": "t1", "robot": None,
             "t": 0.0, "deadline": 55.0},
            {"type": "task", "event": "arrival", "task": "t2", "robot": None,
             "t": 0.0, "deadline": None},
            {"type": "task", "event": "completed", "task": "t2", "robot": 0, "t": 5.0},
            {"type": "task", "event": "completed", "task": "t0", "robot": 0, "t": 10.0},
            {"type": "task", "event": "completed", "task": "t1", "robot": 1, "t": 20.0},
            {"type": "task", "event": "missed", "task": "t3", "robot": None, "t": 21.0},
            {"type": "task", "event": "unassigned", "task": "t4", "robot": None,
             "t": 22.0},
        ]
        return Trace(make_header(), events)

    def test_counts(self):
        report = compute_metrics(self.make_trace())
        assert report.tasks_arrived == 3
        assert report.tasks_completed == 3
        assert report.tasks_missed == 1
        assert report.tasks_unassigned == 1

    def test_completion_times_and_margins(self):
        report = compute_metrics(self.make_trace())
        assert report.completion_times == [5.0, 10.0, 20.0]
        # t2 has no recorded deadline, so only t0 and t1 produce margins
        assert report.deadline_margins == [20.0, 35.0]


class TestQPAndQueues:
    def test_fallback_fraction_counts_distinct_ticks(self):
        events = [
            {"type": "qp", "t": 0.1, "status": INFEASIBLE_FALLBACK, "members": [0]},
            {"type": "qp", "t": 0.1, "status": INFEASIBLE_FALLBACK, "members": [1]},
            {"type": "qp", "t": 0.2, "status": INFEASIBLE_FALLBACK, "members": [0]},
            {"type": "qp", "t": 0.3, "status": FEASIBLE, "members": [0, 1]},
            {"type": "end", "t": 5.0, "ticks": 100},
        ]
        report = compute_metrics(Trace(make_header(), events))
        assert report.fallback_fraction == pytest.approx(0.02)

    def test_qp_timing_from_trace_durations(self):
        events = [
            {"type": "qp", "t": 0.1, "status": FEASIBLE, "members": [0, 1],
             "duration": 0.001},
            {"type": "qp", "t": 0.2, "status": FEASIBLE, "members": [0, 1],
             "duration": 0.003},
            {"type": "qp", "t": 0.3, "status": FEASIBLE, "members": [0],
             "duration": 0.0005},
        ]
        report = compute_metrics(Trace(make_header(), events))
        assert set(report.qp_timing) == {1, 2}
        assert report.qp_timing[2] == QPTimingStats(2, 0.002, 0.003)
        assert report.qp_timing[1].count == 1

    def test_qp_records_without_duration_give_no_timing(self):
        events = [
            {"type": "qp", "t": 0.1, "status": FEASIBLE, "members": [0, 1]},
            {"type": "end", "t": 5.0, "ticks": 100},
        ]
        report = compute_metrics(Trace(make_header(), events))
        assert report.qp_timing == {}
        assert ("qp_mean_s", "NA") in report._rows()

    def test_queue_waits_pair_request_with_grant(self):
        events = [
            {"type": "queue", "event": "request", "room": 0, "robot": 1, "t": 2.0},
            {"type": "queue", "event": "request", "room": 0, "robot": 2, "t": 3.0},
            {"type": "queue", "event": "request", "room": 0, "robot": 1, "t": 4.0},
            {"type": "queue", "event": "grant", "room": 0, "robot": 1, "t": 5.0},
            {"type": "queue", "event": "grant", "room": 0, "robot": 2, "t": 9.0},
            {"type": "queue", "event": "grant", "room": 1, "robot": 0, "t": 9.5},
        ]
        report = compute_metrics(Trace(make_header(), events))
        # repeat request keeps the first timestamp; grant without request ignored
        assert report.queue_waits == [3.0, 6.0]


class TestWallClock:
    def test_realtime_factor_from_end_record(self):
        events = [{"type": "end", "t": 5.0, "ticks": 100, "wall_time": 2.0}]
        report = compute_metrics(Trace(make_header(), events))
        assert report.ticks == 100
        assert report.realtime_factor == pytest.approx(100 * 0.05 / 2.0)

    def test_no_wall_time_leaves_factor_unset(self):
        events = [{"type": "end", "t": 5.0, "ticks": 100}]
        assert compute_metrics(Trace(make_header(), events)).realtime_factor is None

    def test_counters_for_arrivals_and_faults(self):
        events = [
            {"type": "arrival", "t": 1.0, "robot": 0},
            {"type": "arrival", "t": 2.0, "robot": 1},
            {"type": "fault", "t": 3.0, "robot": 0, "reason": "stuck"},
        ]
        report = compute_metrics(Trace(make_header(), events))
        assert report.arrivals == 2 and report.faults == 1


class TestRendering:
    def test_text_report_lines_up(self):
        report = compute_metrics(Trace(make_header()))
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("duration_s")
        assert any(line.startswith("qp_mean_s ") or "qp_mean_s  " in line
                   for line in lines)
        assert "NA" in text
        assert text.endswith("\n")

    def test_csv_header_matches_body(self):
        report = compute_metrics(Trace(make_header()))
        head, body = report.to_csv().strip().split("\n")
        assert len(head.split(",")) == len(body.split(","))
        assert head.split(",")[0] == "duration_s"
        assert body.split(",")[0] == "5"

    def test_csv_includes_timing_when_present(self):
        events = [{"type": "qp", "t": 0.1, "status": FEASIBLE, "members": [0, 1],
                   "duration": 0.002}]
        head, body = compute_metrics(Trace(make_header(), events)).to_csv().split("\n")[:2]
        assert "qp_mean_s_cluster_2" in head
        assert "qp_solves_cluster_2" in head
        assert "qp_mean_s" not in head.split(",")
        assert dict(zip(head.split(","), body.split(",")))["qp_mean_s_cluster_2"] == "0.002"

    def test_empty_trace_report(self):
        report = compute_metrics(Trace(make_header()))
        assert report.ticks == 0
        assert report.fallback_fraction == 0.0
        assert report.min_robot_distance is None
        assert report.completion_times == []
