"""Deterministic multi-robot task-allocation simulator with CBF-QP safety control."""

from .engine import RunResult, collect_travel_times, measure_travel_time, run
from .metrics import MetricsReport, compute_metrics
from .render import render_trace
from .scenario import Scenario, ScenarioError, load_scenario, load_task_stream
from .tasking import (
    Allocation,
    Dispatcher,
    Task,
    TaskRequest,
    TravelTimeGraph,
    solve_exact,
    solve_greedy,
)
from .trace import Trace, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Dispatcher",
    "MetricsReport",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "Task",
    "TaskRequest",
    "Trace",
    "TravelTimeGraph",
    "collect_travel_times",
    "compute_metrics",
    "load_scenario",
    "load_task_stream",
    "measure_travel_time",
    "read_trace",
    "render_trace",
    "run",
    "solve_exact",
    "solve_greedy",
    "write_trace",
    "__version__",
]
