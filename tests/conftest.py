"""Shared map builders and small helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from deqmcl.gridmap import OccupancyGrid

# every run of one commit draws the same examples, so a property test that
# passes once passes always; example counts stay as each test sets them
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def pose_array(pose) -> np.ndarray:
    """A `Pose` as one (x, y, theta) row of the filters' pose arrays."""
    return np.array([pose.x, pose.y, pose.theta])


def make_room(width=60, height=60, wall=1, resolution=1.0) -> OccupancyGrid:
    """Rectangular room: solid border of ``wall`` cells, free interior."""
    cells = np.zeros((height, width), dtype=bool)
    cells[:wall, :] = True
    cells[-wall:, :] = True
    cells[:, :wall] = True
    cells[:, -wall:] = True
    return OccupancyGrid(width, height, resolution, cells)


def make_corridor(length=60, height=12, wall=1, resolution=1.0) -> OccupancyGrid:
    """Long east-west corridor closed at both ends."""
    return make_room(length, height, wall, resolution)


@pytest.fixture
def room():
    return make_room()


@pytest.fixture
def corridor():
    return make_corridor()
