"""The platform contract: the floating-point functions a trace goes through.

Beyond IEEE-754 arithmetic, every trace byte depends on libm's ``sin``,
``cos``, ``atan2``, ``exp`` and ``hypot`` (the last through
``dynamics._hypot``, complex ``abs``) and on CPython's own ``math.hypot``.
Each test pins the SHA-256 of one function's ``float.hex`` outputs over a
fixed seeded corpus in the ranges the bundled runs use, so a host whose
libm rounds differently fails here by function name, not only as a golden
trace digest mismatch.
"""

import hashlib
import math
import random

import pytest

from fleetsim.dynamics import _hypot

N = 12_000


def _angles(rng):
    # headings, ray angles and RK4 mid-step headings
    return [(rng.uniform(-2 * math.pi, 2 * math.pi),) for _ in range(N)]


def _offsets(rng):
    # map-scale offsets, and velocities and small gaps near zero
    return [
        (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)) if k % 2
        else (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        for k in range(N)
    ]


def _exponents(rng):
    # pedestrian repulsion (radius_sum - dist) / 0.35, and the costmap decay
    return [(rng.uniform(-150.0, 3.0),) for _ in range(N)]


# name -> (function, corpus, SHA-256 of its float.hex outputs, one per line)
CONTRACT = {
    "math.sin": (math.sin, _angles,
        "7b6995da05b621969d6b8c7abbbd29bfe69a3121200ca139bc05c23a227417c4"),
    "math.cos": (math.cos, _angles,
        "983090574223730cf8ee8e9bf44ef8594044cf7cd417f6a50dad352430f63cb5"),
    "math.atan2": (math.atan2, _offsets,
        "930903f1994df66503013ebf21efe8d1c9facc5048de8592b7f2fec0f093e131"),
    "math.exp": (math.exp, _exponents,
        "d58fc6739eabb8df53fab897bd6fe9da2a11391a2cf4e63cf62d798646e89e93"),
    "math.hypot": (math.hypot, _offsets,
        "6d090cbf27c8f35a36163c86899131bd5ac295df33dd8bc022e3a4041735aceb"),
    "dynamics._hypot": (_hypot, _offsets,
        "bb8b15b3f23f9304533fef801315dc0dcefbd6d02c5671b79425c813e7e78595"),
}


def output_digest(name: str) -> str:
    fn, corpus, _ = CONTRACT[name]
    args = corpus(random.Random(name))
    out = "\n".join(fn(*a).hex() for a in args)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_function_rounds_as_on_the_reference_platform(name):
    expected = CONTRACT[name][2]
    assert output_digest(name) == expected, (
        f"{name} rounds differently on this host: over {N} arguments its outputs "
        f"hash to another SHA-256 than on the reference platform, so trace bytes "
        f"that pass through {name} will differ from the golden digests"
    )
