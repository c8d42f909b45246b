"""Session-scoped simulation runs shared across test modules."""

from __future__ import annotations

import pytest

from fleetsim.engine import run
from fleetsim.scenario import load_scenario

from _support import SCENARIOS, busy_fleet_scenario, crowd_scenario


def _run_bundled(name: str):
    scenario = load_scenario(SCENARIOS / name)
    return scenario, run(scenario)


@pytest.fixture(scope="session")
def smoke_result():
    return _run_bundled("smoke_two_robot.yaml")


@pytest.fixture(scope="session")
def corridors_result():
    return _run_bundled("corridors_two_robot.yaml")


@pytest.fixture(scope="session")
def depot_result():
    return _run_bundled("depot_six_robot.yaml")


@pytest.fixture(scope="session")
def rooms_result():
    return _run_bundled("rooms_four_robot.yaml")


@pytest.fixture(scope="session")
def busy6_result():
    scenario = busy_fleet_scenario(6)
    return scenario, run(scenario)


@pytest.fixture(scope="session")
def crowd_result():
    scenario = crowd_scenario()
    return scenario, run(scenario)
