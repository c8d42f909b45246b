"""Run every workload and print the benchmark's numbers in one report.

Usage:
    python3 perfbench/report.py [--seed N] [--record-fingerprints]

For each workload of BENCHMARK.json, one process at a time, it runs run.py
for the benchmark's run_seconds untraced and then traced. It prints the
machine facts, every end-to-end metric by name and unit next to its plain
wall-time value, the per-layer table of the traced runs and each workload's
spans by self time. The default seed is 1; the held-out seed is 2.
``--record-fingerprints`` stores the untraced runs' behaviour fingerprints
as the expected ones; use it only for a deliberate behaviour change, at the
default seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args()
    settings = layers.settings()
    seconds = settings["run_seconds"]
    why = {w["name"]: w["why"] for w in settings["workloads"]}
    names = list(why)

    untraced, traced = {}, {}
    for name in names:
        untraced[name] = _run(name, args.seed, seconds, 0)
        traced[name] = _run(name, args.seed, seconds, 1)

    machine = untraced[names[0]][0]["machine"]
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))

    print(f"\nend-to-end metrics, untraced, seed {args.seed}, {seconds} s per run;"
          " wall: before the correction for machine speed")
    print(f"{'workload':16s} {'metric':12s} {'value':>12s} {'wall':>12s}  unit")
    for name in names:
        info, result = untraced[name]
        for metric in settings["end_to_end"]:
            m = result["metrics"][metric["name"]]
            wall = info["wall_medians"].get(metric["name"])
            wall = "" if wall is None else _fmt(wall)
            print(f"{name:16s} {metric['name']:12s} {_fmt(m['value']):>12s} {wall:>12s}"
                  f"  {m['unit']}")
    print()
    for name in names:
        for label, (info, result) in (("untraced", untraced[name]), ("traced", traced[name])):
            print(f"{name:16s} {label:9s} episodes {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']} "
                  f"threads {info['machine']['os_threads']} "
                  f"fingerprint: {info['fingerprint_status']}")
            for failure in info["failures"]:
                print(f"    {failure}")

    print("\nper-layer metrics, traced run, per episode")
    header = f"{'metric':40s} {'unit':7s}" + "".join(f" {n:>15s}" for n in names)
    print(header)
    for metric in settings["per_layer"]:
        cells = "".join(f" {_fmt(traced[n][1]['metrics'][metric['name']]['value']):>15s}"
                        for n in names)
        print(f"{metric['name']:40s} {metric['unit']:7s}{cells}")

    for name in names:
        print(f"\n{name}: {why[name]}")
        info = traced[name][0]
        print(f"  spans: {info.get('spans_file')}")
        print(f"  {'span':34s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s}")
        for span, row in info.get("self_time", {}).items():
            print(f"  {span:34s} {row['calls']:10.0f} {row['busy_s']:10.4f} "
                  f"{row['self_s']:10.4f}")

    if args.record_fingerprints:
        path = HERE / "fingerprints.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        for name in names:
            recorded[name] = {"seed": args.seed, **untraced[name][0]["fingerprint"]}
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"\nfingerprints written to {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
