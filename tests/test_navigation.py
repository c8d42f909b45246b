import logging

import pytest

from fleetsim.navigation import (
    ARRIVE,
    QUEUE_WAIT,
    RoadwayNetwork,
    RoomQueue,
    Waypoint,
    expand_actions,
    on_queue_position,
    point_in_polygon,
    record_arrival,
)

LOCS = {0: (0.0, 0.0), 1: (4.0, 0.0), 2: (4.0, 4.0)}


class TestRoadwayNetwork:
    def test_authored_route(self):
        net = RoadwayNetwork(dict(LOCS), {(0, 1): [(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)]})
        assert net.route(0, 1) == [(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)]

    def test_reversed_fallback(self):
        net = RoadwayNetwork(dict(LOCS), {(0, 1): [(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)]})
        assert net.route(1, 0) == [(4.0, 0.0), (2.0, 1.0), (0.0, 0.0)]

    def test_straight_fallback(self):
        net = RoadwayNetwork(dict(LOCS))
        assert net.route(0, 2) == [(0.0, 0.0), (4.0, 4.0)]

    def test_unknown_location(self):
        net = RoadwayNetwork(dict(LOCS))
        with pytest.raises(KeyError):
            net.route(0, 9)
        with pytest.raises(KeyError):
            net.route(9, 0)

    def test_nearest_location_tie_prefers_lowest_id(self):
        net = RoadwayNetwork({3: (0.0, 0.0), 1: (2.0, 0.0)})
        assert net.nearest_location((1.0, 0.0)) == 1
        assert net.nearest_location((0.4, 0.0)) == 3


class TestPointInPolygon:
    SQUARE = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]

    def test_inside_outside(self):
        assert point_in_polygon((1.0, 1.0), self.SQUARE)
        assert not point_in_polygon((3.0, 1.0), self.SQUARE)
        assert not point_in_polygon((-0.1, 1.0), self.SQUARE)

    def test_boundary_counts_inside(self):
        assert point_in_polygon((2.0, 1.0), self.SQUARE)
        assert point_in_polygon((1.0, 0.0), self.SQUARE)

    def test_concave_polygon(self):
        # U shape: the notch between the arms is outside
        poly = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
        poly = [(float(x), float(y)) for x, y in poly]
        assert point_in_polygon((0.5, 2.0), poly)
        assert point_in_polygon((2.5, 2.0), poly)
        assert not point_in_polygon((1.5, 2.0), poly)
        assert point_in_polygon((1.5, 0.5), poly)


class TestRoomQueue:
    def make(self, n_slots=2):
        return RoomQueue(
            room_id=7,
            slots=[(5.0, float(k)) for k in range(n_slots)],
            room_position=(5.0, -2.0),
        )

    def test_first_requester_holds(self):
        q = self.make()
        assert q.request_slot(1) == 0
        assert q.holder == 1
        assert q.occupants == []

    def test_fifo_grant_order(self):
        q = self.make()
        q.request_slot(1)
        assert q.request_slot(2) == 0
        assert q.request_slot(3) == 1
        assert q.occupants == [2, 3]
        # holder leaves: the front occupant is promoted immediately
        assert q.release(1, (20.0, 0.0), 2.0)
        assert q.holder == 2
        assert q.occupants == [3]
        assert q.release(2, (20.0, 0.0), 2.0)
        assert q.holder == 3

    def test_request_idempotent(self):
        q = self.make()
        q.request_slot(1)
        q.request_slot(2)
        assert q.request_slot(1) == 0
        assert q.request_slot(2) == 0
        assert q.occupants == [2]

    def test_full_queue_returns_none(self):
        q = self.make(n_slots=1)
        q.request_slot(1)  # holder
        q.request_slot(2)  # fills the single slot
        assert q.request_slot(3) is None
        assert q.index_of(3) is None

    def test_release_requires_distance_or_exhaustion(self):
        q = self.make()
        q.request_slot(1)
        assert not q.release(1, (5.5, -2.0), 2.0)
        assert q.holder == 1
        assert q.release(1, (5.5, -2.0), 2.0, tasks_exhausted=True)
        assert q.holder is None

    def test_release_far_occupant(self):
        q = self.make()
        q.request_slot(1)
        q.request_slot(2)
        assert q.release(2, (50.0, 0.0), 2.0)
        assert q.occupants == []
        assert q.holder == 1

    def test_release_non_member_warns(self, caplog):
        q = self.make()
        with caplog.at_level(logging.WARNING, logger="fleetsim.navigation"):
            assert not q.release(9, (50.0, 0.0), 2.0)
        assert "non-member" in caplog.text

    def test_index_of(self):
        q = self.make()
        q.request_slot(1)
        q.request_slot(2)
        q.request_slot(3)
        assert q.index_of(1) == 0
        assert q.index_of(2) == 0
        assert q.index_of(3) == 1


class TestExpandActions:
    NET = RoadwayNetwork(
        dict(LOCS),
        {(0, 1): [(0.0, 0.0), (2.0, 1.0), (4.0, 0.0)]},
    )

    def test_chains_routes_with_labels(self):
        plan = expand_actions([1, 2], self.NET, (0.1, 0.0))
        assert plan == [
            Waypoint((0.0, 0.0), None),  # authored 0 -> 1
            Waypoint((2.0, 1.0), None),
            Waypoint((4.0, 0.0), (ARRIVE, 1)),
            Waypoint((4.0, 4.0), (ARRIVE, 2)),  # straight 1 -> 2, join point dropped
        ]

    def test_starts_from_nearest_location(self):
        plan = expand_actions([0], self.NET, (3.9, 0.2))
        # nearest is location 1; route is the reversed authored one
        assert plan == [
            Waypoint((4.0, 0.0), None),
            Waypoint((2.0, 1.0), None),
            Waypoint((0.0, 0.0), (ARRIVE, 0)),
        ]

    def test_repeat_visit_still_records_arrival(self):
        plan = expand_actions([1, 1], self.NET, (0.0, 0.0))
        assert [wp.label for wp in plan].count((ARRIVE, 1)) == 2
        assert plan[-1] == Waypoint((4.0, 0.0), (ARRIVE, 1))

    def test_unknown_action_rejected(self):
        with pytest.raises(KeyError):
            expand_actions([9], self.NET, (0.0, 0.0))

    def _queues(self):
        return {2: RoomQueue(2, slots=[(4.0, 2.0), (4.0, 1.0)], room_position=(4.0, 4.0))}

    def test_room_destination_targets_back_slot(self):
        q = self._queues()
        plan = expand_actions([1, 2], self.NET, (0.1, 0.0), queues=q)
        assert plan[-1] == Waypoint((4.0, 1.0), (QUEUE_WAIT, 2))  # last slot, not the room
        assert plan[-2] == Waypoint((4.0, 0.0), (ARRIVE, 1))

    def test_consecutive_room_visits_share_one_access(self):
        q = self._queues()
        plan = expand_actions([2, 2], self.NET, (0.1, 0.0), queues=q)
        # the second visit keeps the room itself as its waypoint
        assert [wp for wp in plan if wp.label is not None] == [
            Waypoint((4.0, 1.0), (QUEUE_WAIT, 2)),
            Waypoint((4.0, 4.0), (ARRIVE, 2)),
        ]

    def test_separated_room_visits_queue_twice(self):
        q = self._queues()
        plan = expand_actions([2, 0, 2], self.NET, (0.1, 0.0), queues=q)
        waits = [wp for wp in plan if wp.label == (QUEUE_WAIT, 2)]
        assert waits == [Waypoint((4.0, 1.0), (QUEUE_WAIT, 2))] * 2

    def test_roomless_queue_without_slots_untouched(self):
        q = {2: RoomQueue(2, slots=[], room_position=(4.0, 4.0))}
        plan = expand_actions([2], self.NET, (0.1, 0.0), queues=q)
        assert plan[-1] == Waypoint((4.0, 4.0), (ARRIVE, 2))


class TestOnQueuePosition:
    def make_plan(self):
        q = RoomQueue(3, slots=[(1.0, 0.0), (2.0, 0.0)], room_position=(0.0, 0.0))
        plan = [Waypoint((9.0, 9.0), None), Waypoint((2.0, 0.0), (QUEUE_WAIT, 3))]
        return plan, q

    def test_moves_to_granted_slot(self):
        plan, q = self.make_plan()
        out = on_queue_position(plan, q, 0, 5)
        assert out[1] == Waypoint((1.0, 0.0), (QUEUE_WAIT, 3))

    def test_holder_targets_room(self):
        plan, q = self.make_plan()
        q.holder = 5
        out = on_queue_position(plan, q, 0, 5)
        assert out[1] == Waypoint((0.0, 0.0), (ARRIVE, 3))

    def test_index_out_of_range(self):
        plan, q = self.make_plan()
        with pytest.raises(ValueError, match="out of range"):
            on_queue_position(plan, q, 2, 5)

    def test_only_first_wait_retargeted(self):
        q = RoomQueue(3, slots=[(1.0, 0.0)], room_position=(0.0, 0.0))
        plan = [
            Waypoint((2.0, 0.0), (QUEUE_WAIT, 3)),
            Waypoint((5.0, 5.0), None),
            Waypoint((2.0, 0.0), (QUEUE_WAIT, 3)),
        ]
        out = on_queue_position(plan, q, 0, 5)
        assert out[0] == Waypoint((1.0, 0.0), (QUEUE_WAIT, 3))
        assert out[2] == Waypoint((2.0, 0.0), (QUEUE_WAIT, 3))


class TestRecordArrival:
    def test_drops_reached_waypoint_and_label(self):
        plan = [Waypoint((1.0, 0.0), None), Waypoint((2.0, 0.0), (ARRIVE, 1))]
        out = record_arrival(plan)
        assert out == [Waypoint((2.0, 0.0), (ARRIVE, 1))]
        assert plan[0] == Waypoint((1.0, 0.0), None)  # input left as it was
