"""Check that clock.py's correction lets a slowdown of the program through.

Usage:
    python3 perfbench/clock_check.py

clock.py scales wall time by the speed of a burst of work that runs on the
benchmark's own thread. If the program's own cost also slowed the bursts,
the correction would divide a real regression away. This script runs
busy_lanes episodes at the default seed in four rounds. Each round runs,
in a rotating order, one episode as it is and one with each injected
slowdown, every one wrapped around each raycast call the engine makes:

- cpu: a fixed amount of pure-Python arithmetic;
- garbage: 400 dicts that live through the next 200 000, so that they
  reach the oldest generation and the garbage collector's full
  collections walk them;
- cache: a strided read of a 4 MB array, which evicts the caches the
  program and the bursts share.

For each slowdown it prints the median over rounds of slowed / plain, for
rtf and pipeline_s, in wall time and in reference time. A correction that
keeps sensitivity gives reference ratios as far from 1 as the wall ratios.

On a 2-vCPU Xeon VM with Python 3.11.7, four runs gave these pipeline_s
ratios, wall / reference:

    cpu      1.338/1.348  1.420/1.409  1.306/1.405  1.517/1.422
    garbage  1.132/1.143  1.229/1.159  1.173/1.142  1.357/1.138
    cache    1.475/1.442  1.540/1.492  1.546/1.439  1.407/1.512

The reference ratios are the steadier ones. Against the median wall ratio,
a reference ratio keeps about all of the cpu slowdown, nine tenths of the
cache one and seven tenths of the garbage one: the collector's walks over
a large heap evict the caches the bursts use too.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
from collections import deque

import numpy as np

import run
import workloads
from clock import NUMPY_BURST, SpeedSampler


def _cpu(state) -> None:
    total = 0
    for i in range(3000):
        total += i * i


def _garbage(state) -> None:
    state["kept"].extend({"k": i} for i in range(400))


def _cache(state) -> None:
    state["buffer"][::8].sum()


SLOWDOWNS = {"cpu": _cpu, "garbage": _garbage, "cache": _cache}
WORKLOAD = "busy_lanes"
ROUNDS = 4


def main() -> int:
    workdir = run.HERE / "_work" / f"clock-check-{os.getpid()}"
    try:
        wl = workloads.generate(WORKLOAD, workloads.DEFAULT_SEED, workdir, run.SCENARIOS)
        sys.path.insert(0, str(run.SRC))
        import fleetsim as fs
        import fleetsim.engine as engine
        import fleetsim.trace  # noqa: F401  (dumps_record)

        sampler = SpeedSampler(NUMPY_BURST)
        runner = run.Runner(fs, wl, workdir, sampler)
        raycast = engine.raycast
        # kind -> list of (reference rtf, reference pipeline_s, wall rtf, wall pipeline_s)
        results: dict[str, list[tuple[float, ...]]] = {k: [] for k in ("plain", *SLOWDOWNS)}
        with sampler:
            kinds = list(results)
            for r in range(ROUNDS):
                # each round starts with another kind, so that no kind always
                # runs first
                for kind in kinds[r % len(kinds):] + kinds[:r % len(kinds)]:
                    state = {"kept": deque(maxlen=200_000), "buffer": np.ones(1 << 19)}
                    slow = SLOWDOWNS.get(kind)
                    if slow is not None:
                        def slowed(*a, **kw):
                            slow(state)
                            return raycast(*a, **kw)
                        engine.raycast = slowed
                    try:
                        rtf, pipeline_s = runner.episode()
                    finally:
                        engine.raycast = raycast
                    results[kind].append((rtf, pipeline_s, *runner.raw[-1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{WORKLOAD} seed {workloads.DEFAULT_SEED}, {ROUNDS} rounds: slowed / plain, "
          "median over rounds")
    print(f"{'slowdown':10s} {'rtf wall':>10s} {'rtf ref':>10s} "
          f"{'pipe wall':>10s} {'pipe ref':>10s}")
    plain = results["plain"]
    for kind in SLOWDOWNS:
        ratios = [statistics.median(s[i] / p[i] for s, p in zip(results[kind], plain))
                  for i in (2, 0, 3, 1)]
        print(f"{kind:10s}" + "".join(f" {r:10.3f}" for r in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
