"""Command line entry points.

Exit codes: 0 success, 2 invalid input (scenario, trace, or argument
content), 3 filesystem errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import collect_travel_times, run as run_engine, tick_count
from .metrics import compute_metrics
from .render import render_trace
from .scenario import ScenarioError, load_scenario
from .trace import END, TraceError, check_trace, read_trace, write_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetsim",
        description="Deterministic multi-robot delivery simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write a trace")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="trace file to write")
    p_run.add_argument("--tasks", help="task stream JSON overriding the scenario's")
    p_run.add_argument("--duration", type=float, help="override duration (seconds)")
    p_run.add_argument(
        "--timing", action="store_true",
        help="record wall-clock solve times (trace bytes become run-dependent)",
    )

    p_render = sub.add_parser("render", help="render a trace to SVG frames")
    p_render.add_argument("trace", help="trace file to render")
    p_render.add_argument("--out", default="frames", help="output directory")
    p_render.add_argument("--every", type=float, default=1.0,
                          help="seconds between frames")
    p_render.add_argument("--scale", type=float, default=0.05,
                          help="meters per pixel")

    p_collect = sub.add_parser(
        "collect-travel-times",
        help="measure location-to-location travel times by simulation",
    )
    p_collect.add_argument("scenario", help="scenario YAML file")
    p_collect.add_argument("--out", required=True, help="travel-time table to write")

    p_report = sub.add_parser("report", help="print metrics for a trace")
    p_report.add_argument("trace", help="trace file to summarize")
    p_report.add_argument("--format", choices=("text", "csv"), default="text")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(
        args.scenario, tasks_path=args.tasks, duration=args.duration
    )
    result = run_engine(scenario, include_timing=args.timing)
    write_trace(args.out, result.trace)
    # report the file as written, so this is what `fleetsim report` prints
    # for it: its 9-digit floats can round a row differently from the
    # in-memory values (ns-grained solve durations often do)
    sys.stdout.write(compute_metrics(read_trace(args.out)).to_text())
    sys.stdout.write(f"trace written to {args.out} "
                     f"(realtime factor {result.realtime_factor:.6g})\n")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    check_trace(args.trace, trace)
    frames = render_trace(
        trace, args.out, every=args.every, meters_per_pixel=args.scale
    )
    sys.stdout.write(f"wrote {len(frames)} frames to {args.out}\n")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    graph = collect_travel_times(scenario)
    Path(args.out).write_text(graph.to_text())
    sys.stdout.write(
        f"measured {len(graph.locations)} locations, table written to {args.out}\n"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    trace = read_trace(args.trace)
    check_trace(args.trace, trace)
    ticks = tick_count(trace.header["duration"], trace.header["control_period"])
    if ticks > 0 and not (trace.events and trace.events[-1]["type"] == END):
        raise TraceError(f"{args.trace}: cut off: no end record after {ticks} promised ticks")
    report = compute_metrics(trace)
    text = report.to_csv() if args.format == "csv" else report.to_text()
    sys.stdout.write(text)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "render": _cmd_render,
    "collect-travel-times": _cmd_collect,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ScenarioError, TraceError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
