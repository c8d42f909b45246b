"""Waypoint generation, roadway routing, and the room-queue protocol.

Roadways are authored directional waypoint routes between named locations.
Room access is serialized through a queue of slots outside the room: only the
queue holder may enter, everyone else waits at their slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

Position = tuple[float, float]

# waypoint labels
ARRIVE = "arrive"  # reaching this waypoint completes travel to a location
QUEUE_WAIT = "queue"  # hold at this waypoint until the room queue grants access
Label = tuple[str, int] | None


@dataclass
class RoadwayNetwork:
    """Named locations plus directional waypoint routes between them."""

    locations: dict[int, Position]
    routes: dict[tuple[int, int], list[Position]] = field(default_factory=dict)

    def route(self, a: int, b: int) -> list[Position]:
        """Authored route, else the reverse of the opposite route, else a
        straight two-point connection."""
        if a not in self.locations:
            raise KeyError(f"unknown location {a}")
        if b not in self.locations:
            raise KeyError(f"unknown location {b}")
        if (a, b) in self.routes:
            return list(self.routes[(a, b)])
        if (b, a) in self.routes:
            return list(reversed(self.routes[(b, a)]))
        return [self.locations[a], self.locations[b]]

    def nearest_location(self, position: Position) -> int:
        """Location id closest to a position (lowest id on ties)."""
        return min(
            sorted(self.locations),
            key=lambda loc: (math.dist(position, self.locations[loc]), loc),
        )


@dataclass
class RoomQueue:
    """FIFO access queue for one room.

    ``occupants`` hold slots outside the room (front = slot 0); the holder has
    been popped from the front and owns room access until released.
    """

    room_id: int
    slots: list[Position]
    room_position: Position
    occupants: list[int] = field(default_factory=list)
    holder: int | None = None

    def request_slot(self, robot: int) -> int | None:
        """Join the queue (idempotent). Returns the slot index, 0 with holder
        status when the queue is idle, or None when every slot is taken."""
        if robot == self.holder:
            return 0
        if robot in self.occupants:
            return self.occupants.index(robot)
        if len(self.occupants) >= len(self.slots):
            return None
        self.occupants.append(robot)
        if self.holder is None and self.occupants[0] == robot:
            self.holder = self.occupants.pop(0)
            return 0
        return self.occupants.index(robot)

    def index_of(self, robot: int) -> int | None:
        if robot == self.holder:
            return 0
        if robot in self.occupants:
            return self.occupants.index(robot)
        return None

    def release(
        self,
        robot: int,
        robot_position: Position,
        release_distance: float,
        tasks_exhausted: bool = False,
    ) -> bool:
        """Leave the queue once far enough from the room or out of tasks.

        A released holder promotes the front occupant immediately. Returns
        True when a release happened.
        """
        far = math.dist(robot_position, self.room_position) > release_distance
        if not (far or tasks_exhausted):
            return False
        if robot == self.holder:
            self.holder = self.occupants.pop(0) if self.occupants else None
            return True
        if robot in self.occupants:
            self.occupants.remove(robot)
            return True
        return False


def point_in_polygon(point: Position, polygon: list[Position]) -> bool:
    """Even-odd rule point-in-polygon test (boundary points count as inside)."""
    x, y = point
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            t = (y - y1) / (y2 - y1)
            xc = x1 + t * (x2 - x1)
            if x < xc:
                inside = not inside
            elif x == xc:
                return True
    return inside


class Waypoint(NamedTuple):
    """One point of a robot's plan.

    ``label`` None marks a plain travel waypoint, (ARRIVE, loc) marks
    completion of travel to a location, (QUEUE_WAIT, loc) marks a queue slot
    the robot must hold at until granted access.
    """

    point: Position
    label: Label


def expand_actions(
    actions: list[int],
    net: RoadwayNetwork,
    current: Position,
    queues: dict[int, RoomQueue] | None = None,
) -> list[Waypoint]:
    """Turn an ordered location sequence into a waypoint plan.

    Routes are chained starting from the location nearest the robot, joining
    duplicates dropped. A destination with a room queue is targeted at the
    queue's last slot instead of the room itself; access is granted later via
    on_queue_position.
    """
    queues = queues or {}
    for loc in actions:
        if loc not in net.locations:
            raise KeyError(f"unknown location {loc}")
    plan: list[Waypoint] = []
    chain = [net.nearest_location(current)] + list(actions)
    for a, b in zip(chain, chain[1:]):
        pts = net.route(a, b)
        if plan and pts and math.dist(pts[0], plan[-1].point) < 1e-9:
            pts = pts[1:]
        for k, pt in enumerate(pts):
            plan.append(Waypoint(pt, (ARRIVE, b) if k == len(pts) - 1 else None))
        if not pts and (not plan or plan[-1].label != (ARRIVE, b)):
            # zero-length leg after join-dedupe: still record the arrival
            plan.append(Waypoint(net.locations[b], (ARRIVE, b)))
    # back to front, so plan[i - 1] still holds its label as expanded
    for i in range(len(plan) - 1, -1, -1):
        label = plan[i].label
        if label is None or label[0] != ARRIVE or label[1] not in queues:
            continue
        if i > 0 and plan[i - 1].label == label:
            continue  # consecutive services at one room share a single access
        q = queues[label[1]]
        if q.slots:
            plan[i] = Waypoint(q.slots[-1], (QUEUE_WAIT, label[1]))
    return plan


def on_queue_position(
    plan: list[Waypoint], q: RoomQueue, index: int, robot: int
) -> list[Waypoint]:
    """Retarget the plan's queue-wait waypoint to slot ``index``.

    Once ``robot`` holds index 0 with access granted, the wait waypoint
    becomes the room itself. The waypoint must not stay on slot 0: the next
    occupant in line camps there, and routing the holder through an occupied
    slot would wedge both behind the safety filter.
    """
    if not 0 <= index < max(len(q.slots), 1):
        raise ValueError(f"slot index {index} out of range")
    plan = list(plan)
    for i, (_, label) in enumerate(plan):
        if label == (QUEUE_WAIT, q.room_id):
            if index == 0 and q.holder == robot:
                plan[i] = Waypoint(q.room_position, (ARRIVE, q.room_id))
            else:
                plan[i] = Waypoint(q.slots[index], label)
            break
    return plan


def record_arrival(plan: list[Waypoint]) -> list[Waypoint]:
    """Drop the reached first waypoint."""
    return plan[1:]
