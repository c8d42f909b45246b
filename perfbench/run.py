"""fleetsim benchmark: one workload, one seed, one process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed (see workloads.py) into a
scratch directory under perfbench/_work and removed afterwards. The run
measures for about S seconds, in two parts:

1. Set-up probes. Fresh interpreters import fleetsim and load the scenario;
   setup_s is the median of import plus load.
2. Episodes. One episode is what ``fleetsim run`` plus ``fleetsim report``
   do after loading: run, write_trace, read_trace, compute_metrics. On
   travel_table it is collect_travel_times plus writing the table. Episodes
   repeat the same inputs until the time is up, and at least twice.

End-to-end metrics (each a median over the run's episodes or probes):

- rtf: simulated seconds per second of ``run``; on travel_table, the
  simulated seconds of the table's entries per second of the collection.
- pipeline_s: seconds of one episode.
- setup_s: seconds to import fleetsim and load the scenario.
- peak_rss_mb: peak resident memory of this process up to the end of its
  first episode. A fleetsim command runs one episode in a fresh process;
  later episodes here add only what the allocator's fragmentation leaves,
  which swung busy_lanes' peak between 102 MB and 109 MB from run to run.
  An episode drops the trace it ran before reading it back, as ``fleetsim
  report`` starts without it, and checks the written file a line at a
  time, so the harness holds no copy of a trace.

Seconds are at reference machine speed (clock.py): wall time with the
host's changing speed taken out. The line before the result carries the
plain wall-time values and their medians, the sampled speeds, the
failures, the behaviour fingerprint and machine facts.

Every episode is checked. An episode fails when it raises, when its trace
holds a fault record, when the written trace does not read back to the same
records, when compute_metrics on the read-back trace differs from the
in-memory report, when its bytes differ from the first episode's, or, on
travel_table, when an entry differs from the bundled depot table.

The behaviour fingerprint of the default seed (fingerprints.json: trace
SHA-256, tasks completed and missed, minimum robot distance, fallback tick
fraction) is compared on every run; a mismatch is reported as a behaviour
change, apart from speed. Digests depend on the platform's libm and BLAS.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every second episode runs under span tracing (spans.py), the
others untraced, and the last line reports the per-layer metrics of the
traced ones. Traced and untraced episodes must write the same bytes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
FINGERPRINTS = HERE / "fingerprints.json"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
import clock  # noqa: E402
from spans import Tracer  # noqa: E402

PROBES_UNTRACED = 5
PROBES_TRACED = 3
PROBE_TIMEOUT_S = 60


class EpisodeFailure(Exception):
    """An episode produced a wrong or inconsistent output."""


def _plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_probes(scenario: Path, count: int, inflate: bool) -> list[dict]:
    """Set-up timings from ``count`` fresh interpreters, one after another."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(scenario)]
    if inflate:
        cmd.append("--inflate")
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9)
    if isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _report_differences(a, b) -> list[str]:
    fields = ("duration", "ticks", "robots", "tasks_arrived", "tasks_completed",
              "tasks_missed", "tasks_unassigned", "completion_times",
              "deadline_margins", "min_robot_distance", "min_obstacle_distance",
              "fallback_fraction", "queue_waits", "arrivals", "faults")
    return [f for f in fields if not _close(getattr(a, f), getattr(b, f))]


class Runner:
    """Runs and checks the episodes of one workload."""

    def __init__(self, fs, wl, workdir: Path, sampler: clock.SpeedSampler) -> None:
        self.fs = fs
        self.wl = wl
        self.workdir = workdir
        self.sampler = sampler
        self.call = _plain_call
        self.raw: list[tuple[float, float]] = []  # (rtf, pipeline_s) in wall seconds
        self.first_digest: str | None = None
        self.fingerprint: dict | None = None
        self.records = 0
        self.bytes = 0

    def episode(self) -> tuple[float, float]:
        """Run one checked episode; return (rtf, pipeline_s) at reference speed."""
        if self.wl.kind == "table":
            return self._table_episode()
        return self._sim_episode()

    def _sim_episode(self) -> tuple[float, float]:
        fs, call = self.fs, self.call
        path = self.workdir / "episode.trace"
        scenario = call("scenario.load_scenario", fs.load_scenario, self.wl.scenario_path)
        gc.collect()
        t0 = time.perf_counter()
        result = call("engine.run", fs.run, scenario)
        t1 = time.perf_counter()
        call("trace.write_trace", fs.write_trace, path, result.trace)
        t2 = time.perf_counter()
        sim_time = result.sim_time
        self.records = len(result.trace.events) + 1
        in_memory = None
        if self.first_digest is None:
            faults = [e for e in result.trace.events if e["type"] == "fault"]
            if faults:
                raise EpisodeFailure(f"{len(faults)} fault records, first: {faults[0]}")
            # as ``fleetsim run`` does after writing
            in_memory = fs.compute_metrics(result.trace)
        # ``fleetsim report`` runs in a process of its own, without the
        # written trace: drop it, so that peak_rss_mb counts one trace
        del result
        gc.collect()
        t3 = time.perf_counter()
        back = call("trace.read_trace", fs.read_trace, path)
        report = call("metrics.compute_metrics", fs.compute_metrics, back)
        t4 = time.perf_counter()

        digest = self._trace_digest(path, back)
        self.bytes = path.stat().st_size
        if self.first_digest is None:
            diff = _report_differences(in_memory, report)
            if diff:
                raise EpisodeFailure(f"read-back report differs from in-memory in {diff}")
            self.first_digest = digest
            self.fingerprint = {
                "digest": digest,
                "tasks_completed": report.tasks_completed,
                "tasks_missed": report.tasks_missed,
                "min_robot_distance": report.min_robot_distance,
                "fallback_tick_fraction": report.fallback_fraction,
            }
        elif digest != self.first_digest:
            raise EpisodeFailure(
                f"same inputs gave different trace bytes: {digest} != {self.first_digest}")
        self.raw.append((sim_time / (t1 - t0), t2 - t0 + t4 - t3))
        run_s = self.sampler.reference_seconds(t0, t1)
        pipeline_s = (self.sampler.reference_seconds(t0, t2)
                      + self.sampler.reference_seconds(t3, t4))
        return sim_time / run_s, pipeline_s

    def _trace_digest(self, path: Path, back) -> str:
        """SHA-256 of the written trace, read a line at a time. On the first
        episode, also check that every line is its read-back record."""
        dumps = self.fs.trace.dumps_record
        sha = hashlib.sha256()
        expected = None
        if self.first_digest is None:
            expected = itertools.chain([back.header], back.events)
        with open(path, "rb") as fh:
            for line in fh:
                sha.update(line)
                if expected is not None:
                    record = next(expected, None)
                    if record is None or line != (dumps(record) + "\n").encode():
                        raise EpisodeFailure(
                            "written trace does not read back to the same records")
        if expected is not None and next(expected, None) is not None:
            raise EpisodeFailure("written trace does not read back to the same records")
        return sha.hexdigest()

    def _table_episode(self) -> tuple[float, float]:
        fs, call = self.fs, self.call
        path = self.workdir / "travel.txt"
        scenario = call("scenario.load_scenario", fs.load_scenario, self.wl.scenario_path)
        gc.collect()
        t0 = time.perf_counter()
        graph = call("tasking.collect_travel_times", fs.collect_travel_times, scenario)
        path.write_text(graph.to_text())
        t1 = time.perf_counter()

        text = path.read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        ids = self.wl.location_ids
        bundled = fs.TravelTimeGraph.from_text(
            (SCENARIOS / "tables" / "depot_travel.txt").read_text())
        travel_s = 0.0
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                got = format(float(graph.weights[i, j]), ".9g")
                want = format(bundled.time(a, b), ".9g")
                if got != want:
                    raise EpisodeFailure(
                        f"travel time {a}->{b} is {got}, bundled table says {want}")
                travel_s += float(graph.weights[i, j])
        if self.first_digest is None:
            self.first_digest = digest
            self.fingerprint = {
                "digest": digest,
                "entries": len(ids) * (len(ids) - 1),
                "travel_s": travel_s,
            }
        elif digest != self.first_digest:
            raise EpisodeFailure("same inputs gave a different table")
        # simulated seconds of the entries written, per second
        self.raw.append((travel_s / (t1 - t0), t1 - t0))
        pipeline_s = self.sampler.reference_seconds(t0, t1)
        return travel_s / pipeline_s, pipeline_s


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _fingerprint_status(name: str, seed: int, observed: dict | None) -> str:
    recorded = json.loads(FINGERPRINTS.read_text()).get(name) if FINGERPRINTS.exists() else None
    if recorded is None or recorded.get("seed") != seed:
        return "not recorded for this seed"
    if observed is None:
        return "no successful episode"
    changed = sorted(k for k, v in recorded.items() if k != "seed" and observed.get(k) != v)
    return "match" if not changed else "BEHAVIOUR CHANGE in " + ", ".join(changed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "fleetsim" / "__init__.py", SCENARIOS / "maps")
               if not p.exists()]
    if missing:
        sys.stderr.write(f"perfbench: fleetsim sources not found: {missing}\n")
        return 2

    start = time.perf_counter()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, start, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, start: float, workdir: Path) -> int:
    wl = workloads.generate(args.workload, args.seed, workdir, SCENARIOS)
    traced = bool(args.trace)
    probes = run_probes(wl.scenario_path, PROBES_TRACED if traced else PROBES_UNTRACED,
                        inflate=traced)

    sys.path.insert(0, str(SRC))
    import fleetsim as fs
    import fleetsim.trace  # noqa: F401  (dumps_record)

    sampler = clock.SpeedSampler(clock.NUMPY_BURST)
    runner = Runner(fs, wl, workdir, sampler)
    tracer = Tracer(lambda: sampler.paused_s) if traced else None
    # with tracing, episodes alternate untraced / traced, so that machine drift
    # hits both sides of the overhead ratio alike
    untraced_rtf: list[float] = []
    rtfs: list[float] = []
    pipelines: list[float] = []
    failures: list[str] = []
    attempted = 0
    min_episodes = 2
    with sampler:
        while True:
            traced_episode = tracer is not None and attempted % 2 == 1
            if traced_episode:
                tracer.episode = attempted
                tracer.install()
                runner.call = tracer.call
            attempted += 1
            t0 = time.perf_counter()
            try:
                rtf, pipeline = runner.episode()
            except Exception as exc:  # an episode that raises counts as failed
                failures.append(f"episode {attempted}: {type(exc).__name__}: {exc}")
            else:
                (rtfs if traced_episode or tracer is None else untraced_rtf).append(rtf)
                pipelines.append(pipeline)
            finally:
                if traced_episode:
                    tracer.uninstall()
                    runner.call = _plain_call
            took = time.perf_counter() - t0
            if attempted == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if attempted >= min_episodes and elapsed + took > args.seconds:
                break

    speeds = sampler.speeds()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "episodes": attempted,
        "failures": failures,
        "episode_rtf": rtfs,
        "untraced_episode_rtf": untraced_rtf,
        "episode_pipeline_s": pipelines,
        "episode_wall_rtf_pipeline_s": runner.raw,
        # the end-to-end times in plain wall seconds, before clock.py's
        # correction for the machine's speed
        "wall_medians": {
            "rtf": statistics.median(r for r, _ in runner.raw) if runner.raw else 0.0,
            "pipeline_s": statistics.median(p for _, p in runner.raw) if runner.raw else 0.0,
            "setup_s": statistics.median(p["wall_s"] for p in probes),
        },
        "speed_samples": len(speeds),
        "speed_quartiles": statistics.quantiles(speeds, n=4) if len(speeds) > 1 else speeds,
        "fingerprint": runner.fingerprint,
        "fingerprint_status": _fingerprint_status(args.workload, args.seed,
                                                  runner.fingerprint),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "os_threads": _os_threads(),
        },
    }
    ok = not failures and bool(rtfs)
    if traced:
        traced_ids = list(range(1, attempted, 2))
        summary = tracer.summarize(traced_ids)
        counts: Counter = Counter()
        for ep in traced_ids:
            counts.update(tracer.counts[ep])
        counts["exact.max_size"] = max(
            (tracer.counts[ep]["exact.max_size"] for ep in traced_ids), default=0)
        extra = {
            "distinct_goals": statistics.mean(
                len(tracer.plan_goals[ep]) for ep in traced_ids),
            "engine.records": runner.records if wl.kind == "sim" else 0,
            "trace.bytes": runner.bytes,
            "scenario.load_scenario.busy_s": statistics.median(p["load_s"] for p in probes),
            "world.inflate.busy_s": statistics.median(p["inflate_s"] for p in probes),
            "import_s": statistics.median(p["import_s"] for p in probes),
            "tracing.overhead_ratio": (
                statistics.median(untraced_rtf) / statistics.median(rtfs)
                if untraced_rtf and rtfs else 0.0),
        }
        values = layers.per_layer_metrics(summary, counts, len(traced_ids), extra)
        spans_file = HERE / "_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        info["self_time"] = {
            name: {"calls": row["calls"], "busy_s": row["busy_s"], "self_s": row["self_s"]}
            for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
        }
    else:
        values = {
            "rtf": statistics.median(rtfs) if rtfs else 0.0,
            "pipeline_s": statistics.median(pipelines) if pipelines else 0.0,
            "setup_s": statistics.median(p["import_s"] + p["load_s"] for p in probes),
            "peak_rss_mb": peak_rss_mb,
        }
    listed = layers.settings()["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
