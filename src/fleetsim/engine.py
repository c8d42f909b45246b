"""The deterministic tick loop wiring every module together.

Each control tick runs seven phases in a fixed order: task arrivals, queue
transactions, replanning, cluster formation, control synthesis, physics
integration, and arrival/deadline bookkeeping. All iteration is in robot-id
(or leader-id) order, so the same scenario fully determines the trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

from . import trace as tr
from .coordination import (
    Cluster,
    ClusterPartition,
    elect_leaders,
    form_clusters,
    neighbor_sets,
)
from .dynamics import (
    Control,
    HumanState,
    RobotState,
    step_human,
    step_robot,
)
from .navigation import (
    ARRIVE,
    QUEUE_WAIT,
    Position,
    RoomQueue,
    Waypoint,
    expand_actions,
    on_queue_position,
    point_in_polygon,
    record_arrival,
)
from .planner import Path, PlanningError, lookahead_point, plan as plan_path
from .safety import (
    nominal_leader,
    nominal_stop,
    solve_cluster_qp,
    solve_single_qp,
    stop_control,
)
from .scenario import Scenario
from .tasking import Dispatcher, TravelTimeGraph
from .trace import Trace
from .world import raycast


@dataclass
class RunResult:
    """A finished run: the trace plus the run's wall-clock time, which the
    trace carries only when written with timing."""

    trace: Trace
    sim_time: float
    wall_time: float

    @property
    def realtime_factor(self) -> float:
        return self.sim_time / self.wall_time if self.wall_time > 0 else math.inf


class _Robot:
    """Mutable per-robot runtime state."""

    def __init__(self, rid: int, spec) -> None:
        self.rid = rid
        self.params = spec.params
        self.state = RobotState(spec.start[0], spec.start[1], spec.heading, 0.0)
        self.plan: list[Waypoint] = []
        self.path: Path | None = None
        self.path_target: tuple[float, float] | None = None
        self.last_plan_time = -math.inf
        self.ref_location: int | None = None
        self.fault: str | None = None
        self.control = Control(0.0, 0.0)

    def position(self) -> tuple[float, float]:
        return (self.state.x, self.state.y)


def _head(plan: list[Waypoint]) -> tuple[str | None, int | None, Position | None]:
    """Label kind, location and position of the plan's first labeled
    waypoint; all None when it has none."""
    for point, label in plan:
        if label is not None:
            return label[0], label[1], point
    return None, None, None


def _plan_through(costmap, position, targets, cost_weight: float) -> Path:
    """Chain grid plans through the targets, pinning each target exactly.

    Grid paths end on cell centers, which can sit farther from the true
    target than the arrival tolerance; appending the exact coordinates keeps
    the pure-pursuit controller converging onto the real waypoint.
    """
    points: list[tuple[float, float]] = []
    total = 0.0
    at = position
    for target in targets:
        seg = plan_path(costmap, at, target, cost_weight)
        pts = list(seg.points)
        if points and pts and math.dist(points[-1], pts[0]) < 1e-9:
            pts = pts[1:]
        points.extend(pts)
        if math.dist(points[-1], target) > 1e-9:
            points.append((target[0], target[1]))
        total += seg.total_cost
        at = target
    return Path(tuple(points), total)


class _Engine:
    def __init__(self, scenario: Scenario, include_timing: bool) -> None:
        self.s = scenario
        self.include_timing = include_timing
        self.net = scenario.roadways
        self.queues: dict[int, RoomQueue] = scenario.build_queues()
        self.dispatcher = Dispatcher(scenario.travel_graph)
        self.robots = [_Robot(rid, spec) for rid, spec in enumerate(scenario.robots)]
        for rt in self.robots:
            if self.net.locations:
                rt.ref_location = self.net.nearest_location(rt.position())
        self.humans = [
            HumanState(h.start[0], h.start[1], 0.0, 0.0) for h in scenario.humans
        ]
        self.events: list[dict] = []
        self.now = 0.0

    # ------------------------------------------------------------------
    # helpers

    def emit(self, record: dict) -> None:
        self.events.append(record)

    def emit_state(self) -> None:
        self.emit({
            "type": tr.STATE, "t": self.now,
            "robots": [[rt.rid, rt.state.x, rt.state.y, rt.state.theta, rt.state.v]
                       for rt in self.robots],
            "humans": [[h.x, h.y, h.vx, h.vy] for h in self.humans],
        })

    def _fault(self, rt: _Robot, message: str) -> None:
        rt.fault = message
        rt.plan = []
        rt.path = None
        rt.control = Control(0.0, 0.0)
        self.emit({"type": tr.FAULT, "t": self.now, "robot": rt.rid, "error": message})
        q = self._queue_of(rt.rid)
        if q is not None:
            q.release(rt.rid, rt.position(), self.s.world.release_distance,
                      tasks_exhausted=True)
            self._queue_event(q, "release", rt.rid, None)

    def _queue_of(self, rid: int) -> RoomQueue | None:
        """The one room queue the robot is a member of, if any."""
        for q in self.queues.values():
            if q.index_of(rid) is not None:
                return q
        return None

    def _waiting_in_queue(self, rt: _Robot) -> bool:
        if not rt.plan:
            return False
        point, label = rt.plan[0]
        if label is None or label[0] != QUEUE_WAIT:
            return False
        return math.dist(rt.position(), point) <= 2.0 * rt.params.d_arrive

    def _is_active(self, rt: _Robot) -> bool:
        return bool(rt.plan) and not rt.fault and not self._waiting_in_queue(rt)

    def _rebuild_plan(self, rid: int) -> None:
        rt = self.robots[rid]
        if rt.fault:
            return
        actions = [leg.location for leg in self.dispatcher.robot_legs.get(rid, [])]
        rt.plan = expand_actions(actions, self.net, rt.position(), self.queues)
        rt.path = None
        q = self.queues.get(_head(rt.plan)[1])
        idx = None if q is None else q.index_of(rid)
        if idx is not None:
            rt.plan = on_queue_position(rt.plan, q, idx, rid)  # keep its place in line

    def emit_tasks(self, events: list[dict]) -> None:
        for ev in events:
            self.emit({"type": tr.TASK, "t": self.now, **ev})

    # ------------------------------------------------------------------
    # tick phases

    def phase_arrivals(self, stream_pos: int) -> int:
        stream = self.s.task_stream
        while stream_pos < len(stream) and stream[stream_pos].arrival <= self.now + 1e-9:
            req = stream[stream_pos]
            stream_pos += 1
            self._apply(self.dispatcher.dispatch(req, self._fleet(), self.now))
        return stream_pos

    def _fleet(self) -> dict[int, int]:
        """Each robot without a fault, at its reference location."""
        return {rt.rid: rt.ref_location for rt in self.robots if not rt.fault}

    def _apply(self, dispatched: tuple[set[int], list[dict]]) -> None:
        """Emit a dispatcher's task events and replan the robots it changed."""
        changed, events = dispatched
        self.emit_tasks(events)
        for rid in sorted(changed):
            self._rebuild_plan(rid)

    def _queue_event(self, q: RoomQueue, event: str, robot: int, index) -> None:
        self.emit({
            "type": tr.QUEUE, "t": self.now, "room": q.room_id, "event": event,
            "robot": robot, "index": index,
            "occupants": list(q.occupants), "holder": q.holder,
        })

    def _doorway_clear(self, q: RoomQueue, rid: int) -> bool:
        """The approach corridor between queue line and room is free.

        Entering while an outgoing robot is still in the corridor ends with
        the safety filter shoving it backwards into the room. Robots waiting
        in this queue stand on off-corridor slots and do not count.
        """
        room_pos = q.room_position
        clearance = max(
            self.s.world.release_distance,
            math.dist(room_pos, q.slots[-1]),
        )
        ignore = {rid, *q.occupants}
        return all(
            other.rid in ignore or math.dist(other.position(), room_pos) > clearance
            for other in self.robots
        )

    def phase_queues(self) -> None:
        for rid, rt in enumerate(self.robots):
            if rt.fault:
                continue
            pos = rt.position()
            kind, room, waypoint = _head(rt.plan)
            q = self._queue_of(rid)
            if q is not None and room != q.room_id:
                # the current leg no longer targets the queue's room
                inside = point_in_polygon(pos, list(self.s.rooms[q.room_id].polygon))
                no_tasks = not self.dispatcher.has_tasks(rid)
                reassigned = q.holder != rid
                exhausted = (no_tasks and not inside) or reassigned
                if q.release(rid, pos, self.s.world.release_distance,
                             tasks_exhausted=exhausted):
                    self._queue_event(q, "release", rid, None)
                    q = None
            if q is not None and q.holder != rid:
                # a waiting robot moves up when a robot ahead leaves; the
                # holder moves only by its grant below
                idx = q.index_of(rid)
                if waypoint != q.slots[idx]:
                    rt.plan = on_queue_position(rt.plan, q, idx, rid)
                    self._queue_event(q, "position", rid, idx)
            if q is None and kind == QUEUE_WAIT:
                q = self.queues[room]
                room_pos = q.room_position
                threshold = self.s.world.queue_request_factor * math.dist(
                    q.slots[-1], room_pos
                )
                if math.dist(pos, room_pos) <= threshold:
                    idx = q.request_slot(rid)
                    if idx is None:
                        self._queue_event(q, "full", rid, None)
                    else:
                        self._queue_event(q, "request", rid, idx)
                        if q.holder != rid:
                            rt.plan = on_queue_position(rt.plan, q, idx, rid)
            if (
                q is not None and q.holder == rid
                and (kind, room) == (QUEUE_WAIT, q.room_id)
                and self._doorway_clear(q, rid)
            ):
                # the holder, still waiting, enters once the doorway is clear
                rt.plan = on_queue_position(rt.plan, q, 0, rid)
                rt.path = None
                self._queue_event(q, "grant", rid, 0)

    def phase_replan(self) -> None:
        for rid, rt in enumerate(self.robots):
            if rt.fault or not rt.plan:
                rt.path = None
                continue
            if self._waiting_in_queue(rt):
                continue
            target = rt.plan[0].point
            expired = self.now - rt.last_plan_time >= self.s.replan_period - 1e-9
            if rt.path is not None and rt.path_target == target and not expired:
                continue
            try:
                rt.path = _plan_through(
                    self.s.costmap, rt.position(), [wp.point for wp in rt.plan[:2]],
                    self.s.world.cost_weight,
                )
                rt.path_target = target
                rt.last_plan_time = self.now
                self.emit({
                    "type": tr.PLAN, "t": self.now, "robot": rid,
                    "from": [rt.state.x, rt.state.y],
                    "to": [target[0], target[1]],
                    "status": "ok", "cost": rt.path.total_cost,
                    "points": [[x, y] for x, y in rt.path.points],
                })
            except PlanningError as exc:
                self.emit({
                    "type": tr.PLAN, "t": self.now, "robot": rid,
                    "from": [rt.state.x, rt.state.y],
                    "to": [target[0], target[1]],
                    "status": "error", "cost": None, "points": [],
                })
                self._fault(rt, f"planner: {exc}")

    def phase_clusters(self) -> ClusterPartition:
        positions = {rt.rid: rt.position() for rt in self.robots}
        partition = form_clusters(neighbor_sets(positions, self.s.world.d_neighbor))
        active = {rt.rid for rt in self.robots if self._is_active(rt)}
        partition = elect_leaders(partition, active)
        self.emit_state()
        self.emit({
            "type": tr.CLUSTERS, "t": self.now,
            "clusters": [
                [c.leader, list(c.members), list(c.active_members), c.all_stop]
                for c in partition.clusters
            ],
        })
        return partition

    def _leader_nominal(self, rt: _Robot) -> Control:
        if rt.path is not None:
            waypoint = lookahead_point(rt.path, rt.position(), rt.params.delta)
            return nominal_leader(rt.state, waypoint, rt.params)
        return nominal_stop(rt.state, rt.params)

    def phase_controls(self, partition: ClusterPartition) -> None:
        decided: dict[int, Control] = {}
        for rid, rt in enumerate(self.robots):
            if not self.s.grid.in_bounds(rt.state.x, rt.state.y):
                # nothing can be sensed off the map: stop, outside the QP
                decided[rid] = stop_control(rt.state, rt.params)
                if not rt.fault:
                    self._fault(rt, f"sensing pose ({rt.state.x}, {rt.state.y}) "
                                    "is outside the map bounds")
        for cluster in sorted(partition.clusters, key=lambda c: c.leader):
            members = [m for m in cluster.members if m not in decided]
            if not members:
                continue
            if cluster.all_stop:
                for m in members:
                    rt = self.robots[m]
                    decided[m] = stop_control(rt.state, rt.params)
                continue
            leader = cluster.leader
            params = self.robots[leader].params
            states, nominals, obstacle_points = {}, {}, {}
            for m in members:
                rt = self.robots[m]
                states[m] = st = rt.state
                nominals[m] = (
                    self._leader_nominal(rt) if m == leader
                    else nominal_stop(st, rt.params)
                )
                obstacle_points[m] = raycast(
                    self.s.grid, st.x, st.y, st.theta,
                    self.s.world.n_rays, self.s.world.max_range,
                )
            if self.include_timing:
                t0 = time.perf_counter()
            try:
                if len(members) == 1:
                    only = members[0]
                    decision = solve_single_qp(
                        states[only], nominals[only], obstacle_points[only],
                        self.humans, params, robot_id=only,
                    )
                else:
                    decision = solve_cluster_qp(
                        members, states, nominals, obstacle_points, self.humans, params
                    )
            except ValueError as exc:
                # a bad QP input stops its own cluster, not the run
                for m in members:
                    rt = self.robots[m]
                    decided[m] = stop_control(rt.state, rt.params)
                    if not rt.fault:
                        self._fault(rt, f"safety: {exc}")
                continue
            for m in members:
                decided[m] = decision.controls[m]
            record = {
                "type": tr.QP, "t": self.now, "leader": leader,
                "members": members, "status": decision.qp_status,
                "max_slack": max(decision.slack_used, default=0.0),
                "rows": len(decision.slack_used),
            }
            if self.include_timing:
                record["duration"] = tr.as_written(time.perf_counter() - t0)
            self.emit(record)
        for rid, rt in enumerate(self.robots):
            rt.control = decided[rid]
        self.emit({
            "type": tr.CONTROL, "t": self.now,
            "robots": [[rt.rid, rt.control.a, rt.control.omega] for rt in self.robots],
        })

    def phase_integrate(self) -> None:
        n_sub = round(self.s.control_period / self.s.tick_dt)
        human_obstacles = []
        for h in self.humans:
            speed = math.hypot(h.vx, h.vy)
            heading = math.atan2(h.vy, h.vx) if speed > 1e-9 else 0.0
            if self.s.grid.in_bounds(h.x, h.y):
                hits = raycast(
                    self.s.grid, h.x, h.y,
                    heading, self.s.world.n_rays, self.s.world.max_range,
                ).hit_points()
            else:
                hits = []
            human_obstacles.append(hits)
        # robots never read pedestrians: each robot integrates its period in
        # one call, then pedestrians step over the robots' substep starts
        dt, starts, faults = self.s.tick_dt, [], []
        for rt in self.robots:
            starts.append(walk := [])
            while len(walk) < n_sub:
                try:
                    rt.state = step_robot(rt.state, rt.control, dt, rt.params.v_max,
                                          n_sub - len(walk), walk)
                except ValueError as exc:  # as per-substep calls: the state stays
                    rt.state, rt.control = RobotState(*walk[-1]), Control(0.0, 0.0)
                    faults.append((len(walk) - 1, rt.rid, f"dynamics: {exc}"))
        if self.humans:
            bodies = self.s.robots[0].params  # sizes robot and pedestrian bodies
            for i in range(n_sub):
                robot_positions = [w[i][:2] for w in starts]
                self.humans = [
                    step_human(
                        h, spec, robot_positions, self.humans[:j] + self.humans[j + 1:],
                        human_obstacles[j], dt, bodies.r_robot, bodies.r_human,
                    )
                    for j, (h, spec) in enumerate(zip(self.humans, self.s.humans))
                ]
        for _, rid, message in sorted(faults):  # substep order, then robot order
            self._fault(self.robots[rid], message)

    def phase_bookkeeping(self) -> None:
        for rid, rt in enumerate(self.robots):
            if rt.fault:
                continue
            if rt.plan:
                target, label = rt.plan[0]
                is_wait = label is not None and label[0] == QUEUE_WAIT
                if not is_wait and math.dist(rt.position(), target) <= rt.params.d_arrive:
                    rt.plan = record_arrival(rt.plan)
                    rt.path = None
                    self.emit({
                        "type": tr.ARRIVAL, "t": self.now, "robot": rid,
                        "waypoint": [target[0], target[1]],
                    })
                    if label is not None and label[0] == ARRIVE:
                        rt.ref_location = label[1]
                        self.emit_tasks(
                            self.dispatcher.complete_leg(rid, label[1], self.now)
                        )
            if not rt.plan and not self.dispatcher.has_tasks(rid):
                self._route_out_of_rooms(rt)
        faulted = [rt.rid for rt in self.robots
                   if rt.fault and self.dispatcher.has_tasks(rt.rid)]
        if faulted:
            self._apply(self.dispatcher.release(faulted, self._fleet(), self.now))
        self.emit_tasks(self.dispatcher.check_deadlines(self.now))

    def _route_out_of_rooms(self, rt: _Robot) -> None:
        """An idle robot standing inside a room walks out past the queue line."""
        pos = rt.position()
        for loc, spec in sorted(self.s.rooms.items()):
            if not point_in_polygon(pos, list(spec.polygon)):
                continue
            room_pos = self.net.locations[loc]
            back = spec.queue_slots[-1]
            direction = (back[0] - room_pos[0], back[1] - room_pos[1])
            norm = math.hypot(*direction)
            if norm < 1e-9:
                direction, norm = (1.0, 0.0), 1.0
            exit_point = (
                back[0] + direction[0] / norm,
                back[1] + direction[1] / norm,
            )
            rt.plan = [Waypoint(exit_point, None)]
            rt.path = None
            return

    # ------------------------------------------------------------------

    def header(self) -> dict:
        s = self.s
        return {
            "type": tr.HEADER,
            "version": 1,
            "digest": s.digest,
            "seed": s.seed,
            "tick_dt": s.tick_dt,
            "control_period": s.control_period,
            "replan_period": s.replan_period,
            "duration": s.duration,
            "timing": self.include_timing,
            "map": {
                "width": s.grid.width,
                "height": s.grid.height,
                "resolution": s.grid.resolution,
                "origin_x": s.grid.origin_x,
                "origin_y": s.grid.origin_y,
                "text": s.map_text,
            },
            "robots": [
                {
                    "id": rid, "name": spec.name,
                    "x": spec.start[0], "y": spec.start[1],
                    "heading": spec.heading,
                    "r_robot": spec.params.r_robot,
                    "r_safe": spec.params.r_safe,
                }
                for rid, spec in enumerate(s.robots)
            ],
            "humans": [
                {"x": h.start[0], "y": h.start[1]} for h in s.humans
            ],
            "locations": [
                [loc, x, y] for loc, (x, y) in sorted(s.roadways.locations.items())
            ],
            "rooms": [
                {
                    "location": spec.location,
                    "polygon": [[x, y] for x, y in spec.polygon],
                    "queue_slots": [[x, y] for x, y in spec.queue_slots],
                }
                for spec in (s.rooms[k] for k in sorted(s.rooms))
            ],
            "params": {
                **asdict(s.world),
                "r_human": s.robots[0].params.r_human if s.robots else 0.35,
            },
        }

    def run(self) -> RunResult:
        wall_start = time.perf_counter()
        n_ticks = tick_count(self.s.duration, self.s.control_period)
        stream_pos = 0
        for k in range(n_ticks):
            self.now = k * self.s.control_period
            stream_pos = self.phase_arrivals(stream_pos)
            self.phase_queues()
            self.phase_replan()
            partition = self.phase_clusters()
            self.phase_controls(partition)
            self.phase_integrate()
            self.phase_bookkeeping()
        # rounded as written, so the in-memory trace equals the file's
        wall = tr.as_written(time.perf_counter() - wall_start)
        sim_time = n_ticks * self.s.control_period
        if n_ticks > 0:
            self.now = sim_time
            self.emit_state()
            end_record = {"type": tr.END, "t": self.now, "ticks": n_ticks}
            if self.include_timing:
                end_record["wall_time"] = wall
            self.emit(end_record)
        return RunResult(Trace(self.header(), self.events), sim_time, wall)


def tick_count(duration: float, control_period: float) -> int:
    """Ticks in a run of ``duration`` s; a trace with any ends in an ``end`` record."""
    return int(math.floor(duration / control_period + 1e-9))


def run(scenario: Scenario, include_timing: bool = False) -> RunResult:
    """Execute a scenario to completion and return its trace.

    ``include_timing`` adds each cluster solve's wall-clock duration to its
    ``qp`` record and the run's wall time to the ``end`` record; they vary
    run to run, so the byte-determinism guarantee only covers traces written
    without it.
    """
    return _Engine(scenario, include_timing).run()


def measure_travel_time(
    scenario: Scenario, loc_a: int, loc_b: int, timeout: float = 600.0
) -> float:
    """Simulated seconds for one robot to travel between two locations.

    Runs the engine's own replan, control, integrate and bookkeeping phases
    with one robot: ``robots[0]``'s params, heading 0 at ``loc_a``, no
    humans and no room queues. The result is the number of ticks until the
    robot arrives at ``loc_b``, times ``control_period``.
    """
    locations = scenario.roadways.locations
    if loc_a not in locations or loc_b not in locations:
        missing = loc_a if loc_a not in locations else loc_b
        raise KeyError(f"unknown location {missing}")
    if loc_a == loc_b:
        return 0.0
    start = locations[loc_a]
    spec = replace(scenario.robots[0], start=start, heading=0.0)
    # no rooms: an idle robot inside a room would be routed out of it
    solo = replace(
        scenario, robots=[spec], humans=[], rooms={}, travel_graph=None, task_stream=[]
    )
    engine = _Engine(solo, include_timing=False)
    rt = engine.robots[0]
    rt.plan = expand_actions([loc_b], solo.roadways, start)
    # the partition elect_leaders gives a lone active robot
    partition = ClusterPartition((Cluster((rt.rid,), rt.rid, (rt.rid,)),))
    now = 0.0
    while now <= timeout:
        if not rt.plan:
            return now
        engine.now = now
        engine.phase_replan()
        engine.phase_controls(partition)
        engine.phase_integrate()
        engine.phase_bookkeeping()
        # nothing reads a measurement's records; drop them tick by tick
        engine.events.clear()
        if rt.fault:
            raise PlanningError(f"pair ({loc_a}, {loc_b}) unreachable: {rt.fault}")
        now += scenario.control_period
    raise PlanningError(
        f"pair ({loc_a}, {loc_b}): no arrival within {timeout} simulated seconds"
    )


def collect_travel_times(scenario) -> TravelTimeGraph:
    """Measure travel times by running a single robot between location pairs.

    Each ordered pair is simulated by ``measure_travel_time`` through the
    engine's own tick phases; the pair weight is the larger of the two
    directions, the conservative choice for hard deadlines.
    """
    loc_ids = tuple(sorted(scenario.roadways.locations))
    d = [[measure_travel_time(scenario, a, b) if a != b else 0.0 for b in loc_ids]
         for a in loc_ids]
    n = len(loc_ids)
    return TravelTimeGraph(loc_ids, [[max(d[a][b], d[b][a]) for b in range(n)] for a in range(n)])
