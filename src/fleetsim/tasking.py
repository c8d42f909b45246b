"""Task allocation: travel-time graph, exact and greedy solvers, dispatcher.

Tasks are pickup/drop-off pairs over named locations with hard deadlines.
The exact solver searches assignments and per-robot leg interleavings for the
minimum-makespan schedule meeting every deadline; the greedy solver is the
scalable earliest-deadline-first fallback. The dispatcher owns task lifecycle
state and re-solves whenever a new batch arrives or a robot with tasks faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

EXACT_MAX_TASKS = 8
EXACT_MAX_ROBOTS = 6

PICKUP = "pickup"
DROPOFF = "dropoff"


@dataclass(frozen=True)
class Task:
    start: int
    end: int
    deadline: float

    def __post_init__(self) -> None:
        if self.start == self.end:
            raise ValueError("task start and end must differ")


@dataclass(frozen=True)
class TaskRequest:
    arrival: float
    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        for t in self.tasks:
            if t.deadline <= self.arrival:
                raise ValueError(
                    f"task deadline {t.deadline} not after arrival {self.arrival}"
                )


@dataclass(frozen=True)
class TravelTimeGraph:
    """Symmetric positive travel times between system locations, closed
    under shortest paths when built (Floyd 1962; Warshall 1962): every triple
    meets ``rows[a][c] <= rows[a][b] + rows[b][c]`` as floats. The graph keeps
    the closed table as its own read-only float ``weights``, and the same
    doubles as nested lists in ``rows``, which the search and ``to_text`` read.
    """

    locations: tuple[int, ...]
    weights: np.ndarray  # seconds, shape (n, n)
    index: dict[int, int] = field(init=False, repr=False, compare=False)  # id -> row
    rows: list[list[float]] = field(init=False, repr=False, compare=False)  # rows[a][b]
    # entry[b]: the cheapest leg into b from another location
    entry: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.array(self.weights, dtype=float))
        n = len(self.locations)
        if self.weights.shape != (n, n):
            raise ValueError("weight matrix shape does not match locations")
        if len(set(self.locations)) != n:
            raise ValueError("duplicate location ids")
        bad = np.argwhere(~np.isfinite(self.weights))
        if len(bad):
            i, j = bad[0]
            raise ValueError(
                f"row {i + 1}, column {j + 1} (location {self.locations[i]} to "
                f"{self.locations[j]}): travel time {self.weights[i, j]} is not finite"
            )
        if not np.array_equal(self.weights, self.weights.T):
            raise ValueError("travel times must be symmetric")
        if np.any(np.diag(self.weights) != 0):
            raise ValueError("diagonal travel times must be zero")
        off = self.weights[~np.eye(n, dtype=bool)]
        if n > 1 and np.any(off <= 0):
            raise ValueError("off-diagonal travel times must be positive")
        rows = self.weights.tolist()
        # k-i-j passes until one shortens nothing, as in floats one pass can
        # leave a triple a rounding step off; rows stay symmetric, since
        # rows[i][k] and rows[k][j] hold still while k is the midpoint.
        shortened = True
        while shortened:
            shortened = False
            for k, row_k in enumerate(rows):
                for row in rows:
                    to_k = row[k]
                    for j, onward in enumerate(row_k):
                        if to_k + onward < row[j]:
                            row[j] = to_k + onward
                            shortened = True
        object.__setattr__(self, "weights", np.array(rows).reshape(n, n))
        self.weights.flags.writeable = False
        entry = [min((rows[a][b] for a in range(n) if a != b), default=0.0) for b in range(n)]
        object.__setattr__(self, "index", {loc: k for k, loc in enumerate(self.locations)})
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "entry", entry)

    def time(self, a: int, b: int) -> float:
        index = self.index
        if a not in index or b not in index:
            raise KeyError(f"unknown location {a if a not in index else b}")
        return self.rows[index[a]][index[b]]

    def to_text(self) -> str:
        header = " ".join(str(loc) for loc in self.locations)
        rows = [" ".join(f"{v:.9g}" for v in row) for row in self.rows]
        return "\n".join([header] + rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TravelTimeGraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty travel-time graph file")
        try:
            locations = tuple(int(v) for v in lines[0].split())
        except ValueError as exc:
            raise ValueError(f"line 1: malformed location ids: {exc}") from None
        n = len(locations)
        if len(lines) != n + 1:
            raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
        rows = []
        for k, line in enumerate(lines[1:]):
            vals = line.split()
            if len(vals) != n:
                raise ValueError(f"line {k + 2}: expected {n} entries, found {len(vals)}")
            try:
                rows.append([float(v) for v in vals])
            except ValueError as exc:
                raise ValueError(f"line {k + 2}: malformed entry: {exc}") from None
        return cls(locations, np.array(rows))


@dataclass(frozen=True)
class Leg:
    """One scheduled stop: which task, which end of it, where, and when."""

    task: int  # index into the solver's task list
    stage: str  # PICKUP or DROPOFF
    location: int
    time: float


@dataclass(frozen=True)
class Allocation:
    legs: dict[int, list[Leg]] = field(default_factory=dict)  # robot -> visit order
    unassigned: list[int] = field(default_factory=list)  # task indices

    def makespan(self, now: float) -> float:
        latest = now
        for legs in self.legs.values():
            if legs:
                latest = max(latest, legs[-1].time)
        return latest

    def validate(self) -> None:
        """Check single assignment and pickup-before-drop-off precedence."""
        owner: dict[int, int] = {}
        for rid, legs in self.legs.items():
            for leg in legs:
                if leg.task in owner and owner[leg.task] != rid:
                    raise ValueError(f"task {leg.task} split across robots")
                owner[leg.task] = rid
            pick = {leg.task: i for i, leg in enumerate(legs) if leg.stage == PICKUP}
            drop = {leg.task: i for i, leg in enumerate(legs) if leg.stage == DROPOFF}
            for t, i in pick.items():
                if t not in drop:
                    raise ValueError(f"task {t} picked up but never dropped off")
                if drop[t] < i:
                    raise ValueError(f"task {t} dropped off before pickup")
        for idx in self.unassigned:
            if idx in owner:
                raise ValueError(f"task {idx} both assigned and unassigned")


def _check_locations(robots: dict[int, int], tasks: list[Task], g: TravelTimeGraph) -> None:
    for rid, loc in robots.items():
        if loc not in g.locations:
            raise KeyError(f"robot {rid} at unknown location {loc}")
    for k, t in enumerate(tasks):
        if t.start not in g.locations or t.end not in g.locations:
            raise KeyError(f"task {k} references an unknown location")


def _bound_limit(t: float) -> float:
    """The latest a branch's time, or its time plus its lower bound, may be
    and the branch still count as able to finish by ``t``.

    A bound sums up to 16 legs in another order than the schedule adds them,
    and a subset of a robot's tasks skips stops its whole set adds, so either
    can differ by a few rounding steps (relative 1e-15); the far wider margin
    never cuts a branch that could still finish by ``t``.
    """
    return t + 1e-9 * max(1.0, abs(t))


def _best_schedule(
    start_loc: int,
    now: float,
    task_ids: tuple[int, ...],
    tasks: list[Task],
    g: TravelTimeGraph,
    pre_picked: frozenset[int],
    forced_first: tuple[int, str] | None,
    cutoff: float,
) -> tuple[float, list[Leg]] | None:
    """Minimum-completion leg order for one robot over its assigned tasks.

    Depth-first search over pickup/drop-off interleavings, trying legs in
    (location, stage, task) order, with hard-deadline pruning and dominance
    pruning on (location, picked, done) states; of the earliest-finishing
    orders it returns the first one tried. Returns None when no order meets
    every deadline and finishes by ``cutoff``.

    A branch is also cut when it cannot finish strictly before the best
    order found so far, or by the cutoff: when its time, plus the cheapest
    way into each location it still has to visit, is already later. Each
    such location must be entered at least once, and only a stay is free.
    """
    index, rows, entry = g.index, g.rows, g.entry
    bit = {t: 1 << i for i, t in enumerate(task_ids)}
    full = (1 << len(task_ids)) - 1
    order = sorted(
        [(tasks[t].start, PICKUP, t) for t in task_ids]
        + [(tasks[t].end, DROPOFF, t) for t in task_ids]
    )
    # (row of the location, task bit, is drop-off, deadline, position in order)
    legs = [
        (index[loc], bit[t], stage == DROPOFF,
         tasks[t].deadline if stage == DROPOFF else math.inf, k)
        for k, (loc, stage, t) in enumerate(order)
    ]
    first = None
    if forced_first is not None:
        # the robot's in-progress leg (its task is in task_ids) stays its first
        first = [leg for leg, (_, stage, t) in zip(legs, order) if (t, stage) == forced_first]

    def remaining(picked: int, done: int) -> tuple[list, int]:
        """The legs open now, and the rows of every location still to visit."""
        open_legs, rows_left = [], 0
        for leg in legs:
            x, b, drop = leg[:3]
            if done & b or not drop and picked & b:
                continue
            rows_left |= 1 << x
            if not drop or picked & b:
                open_legs.append(leg)
        return open_legs, rows_left

    remaining_of: dict[tuple[int, int], tuple[list, int]] = {}
    bound_of: dict[int, float] = {}  # rows to enter -> sum of their entry costs
    visited: dict[tuple[int, int, int], float] = {}
    path: list[tuple[int, float]] = []  # (position in order, arrival)
    best_t = math.inf
    best_path: list[tuple[int, float]] | None = None
    limit = _bound_limit(cutoff)

    def dfs(x: int, t_now: float, picked: int, done: int, options) -> None:
        nonlocal best_t, best_path, limit
        if done == full:
            if t_now < best_t:
                best_t, best_path = t_now, path[:]
                limit = min(limit, _bound_limit(t_now))
            return
        if t_now >= best_t or t_now > cutoff:
            return
        left = remaining_of.get((picked, done))
        if left is None:
            left = remaining_of[picked, done] = remaining(picked, done)
        to_enter = left[1] & ~(1 << x)
        bound = bound_of.get(to_enter)
        if bound is None:
            bound = bound_of[to_enter] = math.fsum(
                e for y, e in enumerate(entry) if to_enter >> y & 1
            )
        if t_now + bound > limit:
            return
        key = (x, picked, done)
        prev = visited.get(key)
        if prev is not None and prev <= t_now:
            return
        visited[key] = t_now
        row = rows[x]
        for y, b, drop, deadline, k in options or left[0]:
            arrive = t_now + row[y]
            if arrive > deadline:
                continue
            path.append((k, arrive))
            if drop:
                dfs(y, arrive, picked & ~b, done | b, None)
            else:
                dfs(y, arrive, picked | b, done, None)
            path.pop()

    picked = 0
    for t in task_ids:
        if t in pre_picked:
            picked |= bit[t]
    dfs(index[start_loc], now, picked, 0, first)
    if best_path is None or best_t > cutoff:
        return None
    return best_t, [
        Leg(order[k][2], order[k][1], order[k][0], arrive) for k, arrive in best_path
    ]


def solve_exact(
    robots: dict[int, int],
    tasks: list[Task],
    g: TravelTimeGraph,
    now: float,
    pinned: dict[int, int] | None = None,
    pre_picked: frozenset[int] = frozenset(),
    forced_first: dict[int, tuple[int, str]] | None = None,
) -> Allocation | None:
    """Minimum-makespan allocation meeting every deadline, or None.

    Branch-and-bound over task-to-robot assignments; each robot's legs are
    ordered by an exhaustive interleaving search. ``pinned`` forces specific
    tasks onto specific robots, ``pre_picked`` marks tasks already carried
    (only their drop-off remains), and ``forced_first`` pins a robot's
    in-progress leg as its first element. Ties break lexicographically by
    (robot id, visit sequence).
    """
    if len(tasks) > EXACT_MAX_TASKS or len(robots) > EXACT_MAX_ROBOTS:
        raise ValueError(
            f"instance too large for exact search "
            f"({len(tasks)} tasks, {len(robots)} robots); use solve_greedy"
        )
    _check_locations(robots, tasks, g)
    pinned = dict(pinned or {})
    forced_first = dict(forced_first or {})
    for rid, (t, stage) in forced_first.items():
        pinned.setdefault(t, rid)
    for t in pre_picked:
        if t not in pinned:
            raise ValueError(f"carried task {t} must be pinned to its robot")

    robot_ids = sorted(robots)
    if not robot_ids:
        raise ValueError("no robots")
    n_tasks = len(tasks)

    # A robot's schedule depends only on its start location, its forced leg
    # (when that leg's task is in the set) and its task set, so robots that
    # agree on all three share one search. An entry holds the search's
    # result and the cutoff it ran under; None means no schedule finishes by
    # that cutoff, which stays true for any lower one. A schedule carries its
    # visit sequence, the robot's part of the tie-break key.
    schedule_cache: dict[tuple, tuple[tuple[float, list[Leg], tuple] | None, float]] = {}

    def robot_schedule(rid: int, assigned: int, cutoff: float = math.inf):
        forced = forced_first.get(rid)
        if forced is not None and not assigned >> forced[0] & 1:
            forced = None
        key = (robots[rid], forced, assigned)
        hit = schedule_cache.get(key)
        if hit is not None and (hit[0] is not None or cutoff <= hit[1]):
            return hit[0]
        task_ids = tuple(t for t in range(n_tasks) if assigned >> t & 1)
        sched = _best_schedule(
            robots[rid], now, task_ids, tasks, g, pre_picked, forced, cutoff,
        )
        if sched is not None:
            sched = (*sched, tuple(leg.location for leg in sched[1]))
        schedule_cache[key] = (sched, cutoff)
        return sched

    best: list[tuple[float, tuple, dict[int, int]] | None] = [None]
    # The makespan a branch may not pass: the best one found, or first
    # greedy's, with _bound_limit's margin, when it places every task. Each
    # robot's leg search tries greedy's legs in greedy's order, so that is
    # reachable; on a closed table a robot ends a subset of its tasks no
    # later than the whole set but for rounding, so the seed cuts no
    # allocation that could win. Commitments run unseeded.
    limit = [math.inf]
    if not pinned:
        seed = solve_greedy(robots, tasks, g, now)
        if not seed.unassigned:
            limit[0] = _bound_limit(seed.makespan(now))

    def lex_key(assignment: dict[int, int]) -> tuple:
        # every assigned robot's schedule was found on the way down
        return tuple(
            robot_schedule(rid, assignment[rid])[2] if rid in assignment else ()
            for rid in robot_ids
        )

    def assign(task_idx: int, assignment: dict[int, int], completions: dict[int, float]) -> None:
        if max(completions.values(), default=now) > limit[0]:
            return
        if task_idx == n_tasks:
            makespan = max(completions.values(), default=now)
            key = lex_key(assignment)
            if best[0] is None or (makespan, key) < (best[0][0], best[0][1]):
                best[0] = (makespan, key, dict(assignment))
                limit[0] = makespan
            return
        candidates = [pinned[task_idx]] if task_idx in pinned else robot_ids
        for rid in candidates:
            old_set = assignment.get(rid, 0)
            # a schedule that ends after the limit would make the next level
            # return at once, so the search may stop at the limit
            sched = robot_schedule(rid, old_set | 1 << task_idx, limit[0])
            if sched is None:
                continue
            assignment[rid] = old_set | 1 << task_idx
            old = completions.get(rid)
            completions[rid] = sched[0]
            assign(task_idx + 1, assignment, completions)
            if old is None:
                del completions[rid]
            else:
                completions[rid] = old
            if old_set:
                assignment[rid] = old_set
            else:
                del assignment[rid]

    assign(0, {}, {})
    if best[0] is None:
        return None
    assignment = best[0][2]
    legs: dict[int, list[Leg]] = {rid: [] for rid in robot_ids}
    for rid in robot_ids:
        sched = robot_schedule(rid, assignment.get(rid, 0))
        if sched:
            legs[rid] = list(sched[1])  # robots may share one cached search
    return Allocation(legs, [])


def solve_greedy(
    robots: dict[int, int],
    tasks: list[Task],
    g: TravelTimeGraph,
    now: float,
    committed: dict[int, list[Leg]] | None = None,
) -> Allocation:
    """Earliest-deadline-first allocation.

    Existing committed legs are preserved in order; each remaining task is
    appended (pickup then drop-off) to whichever robot finishes it soonest.
    Tasks that meet their deadline on no robot are reported unassigned.
    """
    _check_locations(robots, tasks, g)
    committed = committed or {}
    robot_ids = sorted(robots)
    if not robot_ids:
        raise ValueError("no robots")
    legs: dict[int, list[Leg]] = {rid: list(committed.get(rid, [])) for rid in robot_ids}
    state: dict[int, tuple[int, float]] = {}
    for rid in robot_ids:
        if legs[rid]:
            state[rid] = (legs[rid][-1].location, legs[rid][-1].time)
        else:
            state[rid] = (robots[rid], now)
    scheduled = {leg.task for seq in committed.values() for leg in seq}
    unassigned: list[int] = []

    order = sorted(
        (k for k in range(len(tasks)) if k not in scheduled),
        key=lambda k: (tasks[k].deadline, k),
    )
    for k in order:
        task = tasks[k]
        best_rid, best_done = None, math.inf
        for rid in robot_ids:
            loc, t = state[rid]
            done = t + g.time(loc, task.start) + g.time(task.start, task.end)
            if done <= task.deadline and done < best_done:
                best_rid, best_done = rid, done
        if best_rid is None:
            unassigned.append(k)
            continue
        loc, t = state[best_rid]
        pick_t = t + g.time(loc, task.start)
        legs[best_rid].append(Leg(k, PICKUP, task.start, pick_t))
        legs[best_rid].append(Leg(k, DROPOFF, task.end, best_done))
        state[best_rid] = (task.end, best_done)

    return Allocation(legs, unassigned)


@dataclass
class TaskRecord:
    """Lifecycle of one accepted task."""

    task_id: str
    task: Task
    robot: int | None = None
    picked_at: float | None = None
    dropped_at: float | None = None
    missed: bool = False
    unassigned: bool = False

    @property
    def completed(self) -> bool:
        return self.dropped_at is not None and not self.missed

    @property
    def terminal(self) -> bool:
        return self.completed or self.missed or self.unassigned


@dataclass(frozen=True)
class DispatchLeg:
    task_id: str
    stage: str
    location: int


class Dispatcher:
    """Owns task lifecycle state and re-solves the allocation on new batches
    and when robots that hold tasks fault.

    Commitment rules on a re-solve: a carried task stays on its robot (only
    its drop-off remains), and each robot's in-progress first leg stays its
    first element. Tasks whose deadline has already passed stay in the
    schedule with their deadline lifted, so they still get finished. Exact
    search is used within its scale caps, greedy beyond them or when the
    exact problem has no deadline-respecting schedule. A scenario without
    a travel-time graph has no tasks, so its dispatcher gets no request.
    """

    def __init__(self, graph: TravelTimeGraph | None) -> None:
        self.graph = graph
        self.records: dict[str, TaskRecord] = {}
        self.robot_legs: dict[int, list[DispatchLeg]] = {}
        self._counter = 0

    # -- engine-facing queries -------------------------------------------

    def has_tasks(self, robot: int) -> bool:
        return bool(self.robot_legs.get(robot))

    # -- lifecycle transitions -------------------------------------------

    def complete_leg(self, robot: int, location: int, now: float) -> list[dict]:
        """Pop the robot's front leg once it reached ``location``.

        Returns the leg's events, or none when the front leg is elsewhere.
        """
        legs = self.robot_legs.get(robot)
        if not legs or legs[0].location != location:
            return []
        leg = legs.pop(0)
        rec = self.records[leg.task_id]
        events: list[dict] = []
        if leg.stage == PICKUP:
            rec.picked_at = now
            events.append({"event": PICKUP, "task": leg.task_id, "robot": robot})
        else:
            rec.dropped_at = now
            events.append({"event": DROPOFF, "task": leg.task_id, "robot": robot})
            if not rec.missed:
                events.append({"event": "completed", "task": leg.task_id, "robot": robot})
        return events

    def check_deadlines(self, now: float) -> list[dict]:
        events = []
        for rec in self.records.values():
            if not rec.terminal and now > rec.task.deadline:
                rec.missed = True
                events.append({"event": "missed", "task": rec.task_id, "robot": rec.robot})
        return events

    def _give_up(self, rec: TaskRecord, robot: int | None) -> list[dict]:
        """No robot will deliver the task: it ends unassigned, unless it
        already ended missed."""
        rec.unassigned = True
        if rec.missed:
            return []
        return [{"event": "unassigned", "task": rec.task_id, "robot": robot}]

    # -- allocation -------------------------------------------------------

    def dispatch(
        self,
        incoming: TaskRequest,
        robots: dict[int, int],
        now: float,
    ) -> tuple[set[int], list[dict]]:
        """Accept a batch and re-solve: (robots whose legs changed, events)."""
        events: list[dict] = []
        for task in incoming.tasks:
            tid = f"t{self._counter}"
            self._counter += 1
            self.records[tid] = TaskRecord(tid, task)
            events.append({
                "event": "arrival", "task": tid, "robot": None,
                "start": task.start, "end": task.end, "deadline": task.deadline,
            })
        if not incoming.tasks:
            return set(), events
        changed, solved = self._solve(robots, now)
        return changed, events + solved

    def release(
        self, faulted: list[int], robots: dict[int, int], now: float
    ) -> tuple[set[int], list[dict]]:
        """Take faulted robots out of the fleet: (robots whose legs changed, events).

        In id order, each one's legs are dropped and each task it carries
        ends unassigned. Then their unpicked tasks are re-solved over
        ``robots``, the robots left.
        """
        events: list[dict] = []
        unpicked = False
        for robot in sorted(faulted):
            for leg in self.robot_legs.pop(robot, []):
                rec = self.records[leg.task_id]
                if rec.picked_at is not None:
                    events += self._give_up(rec, robot)
                else:
                    unpicked = True
        if not unpicked:
            return set(), events
        changed, solved = self._solve(robots, now)
        return changed, events + solved

    def _solve(
        self, robots: dict[int, int], now: float
    ) -> tuple[set[int], list[dict]]:
        """Re-solve every open task over ``robots``; with none, they end unassigned."""
        events: list[dict] = []
        # build the solver's task list: everything not yet dropped or rejected
        open_ids = [
            tid for tid, rec in self.records.items()
            if rec.dropped_at is None and not rec.unassigned
        ]
        solver_tasks: list[Task] = []
        for tid in open_ids:
            rec = self.records[tid]
            deadline = math.inf if rec.missed else rec.task.deadline
            solver_tasks.append(replace(rec.task, deadline=deadline))
        index_of = {tid: k for k, tid in enumerate(open_ids)}

        pinned: dict[int, int] = {}
        pre_picked: set[int] = set()
        forced_first: dict[int, tuple[int, str]] = {}
        for tid in open_ids:
            rec = self.records[tid]
            if rec.picked_at is not None:
                pinned[index_of[tid]] = rec.robot
                pre_picked.add(index_of[tid])
        for rid, legs in self.robot_legs.items():
            if legs and legs[0].task_id in index_of:
                forced_first[rid] = (index_of[legs[0].task_id], legs[0].stage)

        allocation = None
        if not robots:
            allocation = Allocation({}, list(range(len(solver_tasks))))
        elif len(solver_tasks) <= EXACT_MAX_TASKS and len(robots) <= EXACT_MAX_ROBOTS:
            allocation = solve_exact(
                robots, solver_tasks, self.graph, now,
                pinned=pinned, pre_picked=frozenset(pre_picked),
                forced_first=forced_first,
            )
        if allocation is None:
            committed: dict[int, list[Leg]] = {}
            for rid in sorted(robots):
                seq = []
                loc, t = robots[rid], now
                for dl in self.robot_legs.get(rid, []):
                    if dl.task_id not in index_of:
                        continue
                    t += self.graph.time(loc, dl.location)
                    loc = dl.location
                    seq.append(Leg(index_of[dl.task_id], dl.stage, dl.location, t))
                committed[rid] = seq
            allocation = solve_greedy(robots, solver_tasks, self.graph, now, committed)

        changed: set[int] = set()
        new_legs: dict[int, list[DispatchLeg]] = {}
        for rid in sorted(robots):
            legs = [
                DispatchLeg(open_ids[leg.task], leg.stage, leg.location)
                for leg in allocation.legs.get(rid, [])
            ]
            new_legs[rid] = legs
            if legs != self.robot_legs.get(rid, []):
                changed.add(rid)
        for rid, legs in new_legs.items():
            for leg in legs:
                rec = self.records[leg.task_id]
                if leg.stage == PICKUP and rec.robot != rid:
                    rec.robot = rid
                    events.append({"event": "assigned", "task": leg.task_id, "robot": rid})
        for k in allocation.unassigned:
            events += self._give_up(self.records[open_ids[k]], None)
        self.robot_legs = new_legs
        return changed, events

