"""Span tracing around fleetsim's public functions, from outside the package.

``Tracer.install`` replaces the names the engine looks up at call time
(``fleetsim.engine.raycast`` and so on) with pass-through wrappers. Each call
becomes one span: name, start, end, parent span, episode id and the time
spent inside it outside the program, which span durations leave out: the
speed sampler's bursts (clock.py) and the observers. Spans stay in memory
until ``write`` at the end of the run. Observers compute counters from
arguments and results at the same boundary, so every ratio is measured
where the work happens; they run after a call's span closes, inside its
parent's.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module attribute, span name): the names the engine, safety, tasking and
# scenario modules resolve at call time
ENGINE_NAMES = (
    ("raycast", "world.raycast"),
    ("plan_path", "planner.plan"),
    ("lookahead_point", "planner.lookahead_point"),
    ("solve_single_qp", "safety.solve"),
    ("solve_cluster_qp", "safety.solve"),
    ("step_robot", "dynamics.step_robot"),
    ("step_human", "dynamics.step_human"),
    ("form_clusters", "coordination.form_clusters"),
    ("neighbor_sets", "coordination.neighbor_sets"),
    ("elect_leaders", "coordination.elect_leaders"),
    ("expand_actions", "navigation.expand_actions"),
    ("point_in_polygon", "navigation.point_in_polygon"),
    ("on_queue_position", "navigation.on_queue_position"),
    ("record_arrival", "navigation.record_arrival"),
    ("measure_travel_time", "engine.measure_travel_time"),
)


class Tracer:
    """Records spans and boundary counters for one benchmark process."""

    def __init__(self, sampler_paused=lambda: 0.0) -> None:
        # ``sampler_paused()``: wall seconds the speed sampler took so far
        self.sampler_paused = sampler_paused
        # wall seconds the observers took so far, sampler bursts left out
        self.observe_s = 0.0
        # name, start, end, parent index (-1 for a root), episode id, paused s
        self.spans: list[tuple[str, float, float, int, int, float] | None] = []
        self.stack: list[int] = []
        self.episode = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.plan_keys: dict[int, set] = defaultdict(set)
        self.plan_goals: dict[int, set] = defaultdict(set)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def paused(self) -> float:
        """Wall seconds spent outside the program so far."""
        return self.sampler_paused() + self.observe_s

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        paused = self.paused()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.episode,
                               self.paused() - paused)

    def _wrap(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                sampled = self.sampler_paused()
                start = time.perf_counter()
                observe(self.counts[self.episode], args, result)
                self.observe_s += (time.perf_counter() - start
                                   - (self.sampler_paused() - sampled))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, observe))

    def install(self) -> None:
        """Wrap every traced name; ``uninstall`` puts the originals back."""
        import fleetsim.engine as engine
        import fleetsim.safety as safety
        import fleetsim.scenario as scenario
        import fleetsim.tasking as tasking

        observers = {
            "world.raycast": _observe_raycast,
            "planner.plan": self._observe_plan,
            "planner.lookahead_point": _observe_lookahead,
            "safety.solve": _observe_safety,
            "coordination.form_clusters": _observe_clusters,
        }
        for attr, name in ENGINE_NAMES:
            self._patch(engine, attr, name, observers.get(name))
        self._patch(safety, "solve_qp", "qp.solve_qp", _observe_qp)
        self._patch(tasking.Dispatcher, "dispatch", "tasking.dispatch")
        self._patch(tasking, "solve_exact", "tasking.solve_exact", _observe_exact)
        self._patch(tasking, "solve_greedy", "tasking.solve_greedy")
        self._patch(scenario, "inflate", "world.inflate")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _observe_plan(self, counts: Counter, args, result) -> None:
        costmap, start, goal, cost_weight = args[:4]
        grid = costmap.grid
        key = (grid.world_to_cell(*start), grid.world_to_cell(*goal), cost_weight)
        seen = self.plan_keys[self.episode]
        counts["plan.repeats"] += key in seen
        seen.add(key)
        self.plan_goals[self.episode].add(key[1])

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for k, (name, start, end, parent, episode, paused) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": name, "start": start, "end": end,
                    "parent": parent, "episode": episode, "paused": paused,
                }) + "\n")

    def summarize(self, episodes: list[int]) -> dict[str, dict]:
        """Per span name: calls, busy and self seconds per episode, durations.

        A span's duration leaves out the time paused inside it. Self time is
        the duration minus the part its child spans cover. Children of one
        span never overlap: the program is single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, paused in self.spans:
            if parent >= 0:
                child_time[parent] += end - start - paused
        wanted = set(episodes)
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
        )
        for k, (name, start, end, parent, episode, paused) in enumerate(self.spans):
            if episode not in wanted:
                continue
            duration = end - start - paused
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += duration
            row["self_s"] += duration - child_time[k]
            row["durations"].append(duration)
        n = max(len(episodes), 1)
        for row in out.values():
            row["calls"] /= n
            row["busy_s"] /= n
            row["self_s"] /= n
        return out


def _observe_raycast(counts: Counter, args, result) -> None:
    counts["raycast.rays"] += len(result.points)
    counts["raycast.hits"] += sum(p is not None for p in result.points)


def _observe_lookahead(counts: Counter, args, result) -> None:
    counts["lookahead.points"] += len(args[0].points)


def _observe_safety(counts: Counter, args, result) -> None:
    size = len(args[0]) if isinstance(args[0], list) else 1
    counts["safety.size1"] += size == 1
    counts["safety.hard_ok"] += result.qp_status == "feasible"


def _observe_qp(counts: Counter, args, result) -> None:
    A = args[2] if len(args) > 2 else None
    counts["qp.rows"] += 0 if A is None else len(A)
    counts["qp.iterations"] += result.iterations


def _observe_clusters(counts: Counter, args, result) -> None:
    for cluster in result.clusters:
        size = len(cluster.members)
        counts["clusters"] += 1
        counts[f"clusters.size{min(size, 4)}"] += 1


def _observe_exact(counts: Counter, args, result) -> None:
    counts["exact.none"] += result is None
    counts["exact.max_size"] = max(counts["exact.max_size"], len(args[1]))


def quantile(values: list[float], q: float) -> float:
    """The q-quantile of ``values`` (0 for none), by linear interpolation."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
