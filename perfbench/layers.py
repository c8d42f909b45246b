"""The per-layer metrics of a traced run, and the benchmark's metric list.

Layers are fleetsim's modules. Each per-layer metric is listed with the
end-to-end metric it should move, and where:

- safety.solve.*, qp.*: rtf on busy_lanes (single-robot QPs) and on
  rooms_crowd (multi-robot clusters); pipeline_s on travel_table.
- world.raycast.*: rtf on the three simulation workloads; pipeline_s on
  travel_table.
- planner.*: rtf on busy_lanes and depot_dispatch, pipeline_s on
  travel_table, no change on rooms_crowd; setup_s if work moves into loading.
- dynamics.step_human.*: rtf on rooms_crowd only. dynamics.step_robot.*: rtf
  everywhere.
- coordination.*, navigation.*: rtf on rooms_crowd and depot_dispatch.
- tasking.*: rtf and pipeline_s on depot_dispatch; about zero on rooms_crowd.
- engine.run.self_s, engine.records: rtf, through record building each tick.
- engine.measure_travel_time.*: pipeline_s on travel_table.
- trace.*, metrics.*: pipeline_s and peak_rss_mb on busy_lanes; not rtf.
- scenario.load_scenario.busy_s, world.inflate.busy_s, import_s: setup_s.

Counts and times are per episode, averaged over the traced episodes of a
run. Span times are wall seconds under tracing; import_s and
scenario.load_scenario.busy_s come from the set-up probes, in reference
seconds like setup_s. A layer a workload bypasses reads 0.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from spans import quantile

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def settings() -> dict:
    """BENCHMARK.json: the workloads and their reasons, and every metric
    with its unit and direction. Nothing else lists them."""
    return json.loads(BENCHMARK_JSON.read_text())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(summary: dict, counts: Counter, n_episodes: int,
                      extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from a traced run.

    ``summary`` is ``Tracer.summarize`` of the traced episodes, ``counts``
    their summed boundary counters, ``extra`` the values measured outside
    the spans (records, bytes, set-up probe times, tracing overhead).
    """
    empty = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def row(name: str) -> dict:
        return summary.get(name, empty)

    def total(name: str) -> float:
        return row(name)["calls"] * n_episodes

    def layer_busy(prefix: str) -> float:
        return sum(r["busy_s"] for k, r in summary.items() if k.startswith(prefix))

    def max_s(name: str) -> float:
        return max(row(name)["durations"], default=0.0)

    values: dict[str, float] = {}
    for name, unit in (("safety.solve", "us"), ("qp.solve_qp", "us"),
                       ("world.raycast", "us"), ("planner.plan", "ms")):
        r = row(name)
        scale = 1e6 if unit == "us" else 1e3
        values[f"{name}.calls"] = r["calls"]
        values[f"{name}.busy_s"] = r["busy_s"]
        values[f"{name}.p50_{unit}"] = quantile(r["durations"], 0.5) * scale
        if name != "world.raycast":
            values[f"{name}.p99_{unit}"] = quantile(r["durations"], 0.99) * scale
    safety_calls = total("safety.solve")
    qp_calls = total("qp.solve_qp")
    plan_calls = total("planner.plan")
    clusters = counts["clusters"]
    values.update({
        "safety.solve.self_s": row("safety.solve")["self_s"],
        "safety.solve.size1_share": _ratio(counts["safety.size1"], safety_calls),
        "safety.solve.hard_ok_ratio": _ratio(counts["safety.hard_ok"], safety_calls),
        "qp.solve_qp.iterations_per_call": _ratio(counts["qp.iterations"], qp_calls),
        "qp.solve_qp.rows_mean": _ratio(counts["qp.rows"], qp_calls),
        "qp.calls_per_decision": _ratio(qp_calls, safety_calls),
        "world.raycast.hit_ratio": _ratio(counts["raycast.hits"], counts["raycast.rays"]),
        "planner.plan.repeat_share": _ratio(counts["plan.repeats"], plan_calls),
        "planner.plan.distinct_goals": extra["distinct_goals"],
        "planner.lookahead_point.busy_s": row("planner.lookahead_point")["busy_s"],
        "planner.lookahead_point.points_mean": _ratio(
            counts["lookahead.points"], total("planner.lookahead_point")),
        "dynamics.step_human.calls": row("dynamics.step_human")["calls"],
        "dynamics.step_human.busy_s": row("dynamics.step_human")["busy_s"],
        "dynamics.step_robot.calls": row("dynamics.step_robot")["calls"],
        "dynamics.step_robot.busy_s": row("dynamics.step_robot")["busy_s"],
        "coordination.busy_s": layer_busy("coordination."),
        "coordination.multi_share": _ratio(clusters - counts["clusters.size1"], clusters),
        "coordination.cluster_size_1_share": _ratio(counts["clusters.size1"], clusters),
        "coordination.cluster_size_2_share": _ratio(counts["clusters.size2"], clusters),
        "coordination.cluster_size_3_share": _ratio(counts["clusters.size3"], clusters),
        "coordination.cluster_size_4plus_share": _ratio(counts["clusters.size4"], clusters),
        "navigation.busy_s": layer_busy("navigation."),
        "tasking.dispatch.calls": row("tasking.dispatch")["calls"],
        "tasking.dispatch.busy_s": row("tasking.dispatch")["busy_s"],
        "tasking.dispatch.max_s": max_s("tasking.dispatch"),
        "tasking.solve_exact.calls": row("tasking.solve_exact")["calls"],
        "tasking.solve_exact.max_s": max_s("tasking.solve_exact"),
        "tasking.solve_exact.none_ratio": _ratio(
            counts["exact.none"], total("tasking.solve_exact")),
        "tasking.solve_exact.max_size": counts["exact.max_size"],
        "tasking.solve_greedy.calls": row("tasking.solve_greedy")["calls"],
        "tasking.collect_travel_times.busy_s": row("tasking.collect_travel_times")["busy_s"],
        "engine.run.busy_s": row("engine.run")["busy_s"],
        "engine.run.self_s": row("engine.run")["self_s"],
        "engine.measure_travel_time.calls": row("engine.measure_travel_time")["calls"],
        "engine.measure_travel_time.busy_s": row("engine.measure_travel_time")["busy_s"],
        "engine.measure_travel_time.max_s": max_s("engine.measure_travel_time"),
        "trace.write_trace.busy_s": row("trace.write_trace")["busy_s"],
        "trace.read_trace.busy_s": row("trace.read_trace")["busy_s"],
        "metrics.compute_metrics.busy_s": row("metrics.compute_metrics")["busy_s"],
    })
    for key in ("engine.records", "trace.bytes", "scenario.load_scenario.busy_s",
                "world.inflate.busy_s", "import_s", "tracing.overhead_ratio"):
        values[key] = extra[key]
    return values
