"""Set-up probe: import fleetsim and load one scenario in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SCENARIO [--inflate]

Prints one JSON line: ``import_s`` and ``load_s`` in seconds at reference
speed (see clock.py), ``wall_s`` for both together in wall seconds and, with
``--inflate``, the wall seconds of every ``inflate`` call ``load_scenario``
makes (``inflate_s``). Every fleetsim command pays this set-up first.
"""

import json
import sys
import time

import clock


def main() -> None:
    sampler = clock.SpeedSampler(clock.PYTHON_BURST)
    inflate_s = [0.0]
    with sampler:
        start = time.perf_counter()
        sys.path.insert(0, sys.argv[1])
        import fleetsim

        imported = time.perf_counter()
        if "--inflate" in sys.argv[3:]:
            import fleetsim.scenario as scenario

            original = scenario.inflate

            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    inflate_s[0] += time.perf_counter() - t0

            scenario.inflate = timed
        fleetsim.load_scenario(sys.argv[2])
        loaded = time.perf_counter()
    print(json.dumps({
        "import_s": sampler.reference_seconds(start, imported),
        "load_s": sampler.reference_seconds(imported, loaded),
        "wall_s": loaded - start,
        "inflate_s": inflate_s[0],
    }))


if __name__ == "__main__":
    main()
