"""Unit and property tests for the torus topology and routing algorithms."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from repro.interconnect.message import MessageClass, NetworkMessage
from repro.interconnect.routing import (
    AdaptiveMinimalRouting,
    DimensionOrderRouting,
    make_routing,
)
from repro.interconnect.topology import Direction, TorusTopology


def _msg(src: int, dst: int) -> NetworkMessage:
    return NetworkMessage(src=src, dst=dst, msg_class=MessageClass.DATA, size_bytes=72)


class TestTopology:
    def test_coordinates_round_trip(self):
        topo = TorusTopology(4, 4)
        for sid in range(topo.num_switches):
            coord = topo.coordinate(sid)
            assert topo.switch_id(coord.x, coord.y) == sid

    def test_neighbors_are_symmetric(self):
        topo = TorusTopology(4, 4)
        for sid in range(topo.num_switches):
            for direction, other in topo.neighbors(sid).items():
                assert topo.neighbor(other, direction.opposite) == sid

    def test_wraparound(self):
        topo = TorusTopology(4, 4)
        assert topo.neighbor(3, Direction.EAST) == 0
        assert topo.neighbor(0, Direction.WEST) == 3
        assert topo.neighbor(0, Direction.NORTH) == 12

    def test_distance_zero_to_self(self):
        topo = TorusTopology(4, 4)
        assert all(topo.distance(s, s) == 0 for s in range(16))

    def test_distance_symmetric(self):
        topo = TorusTopology(4, 4)
        for a in range(16):
            for b in range(16):
                assert topo.distance(a, b) == topo.distance(b, a)

    def test_max_distance_on_4x4_torus(self):
        topo = TorusTopology(4, 4)
        assert max(topo.distance(0, b) for b in range(16)) == 4

    def test_minimal_directions_local(self):
        topo = TorusTopology(4, 4)
        assert topo.minimal_directions(5, 5) == [Direction.LOCAL]

    def test_dimension_order_prefers_x(self):
        topo = TorusTopology(4, 4)
        # 0 -> 5 requires one hop east and one south; X goes first.
        assert topo.dimension_order_direction(0, 5) == Direction.EAST

    def test_invalid_switch_id(self):
        topo = TorusTopology(2, 2)
        with pytest.raises(ValueError):
            topo.coordinate(4)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            TorusTopology(0, 4)

    def test_mean_distance_positive(self):
        assert TorusTopology(4, 4).all_pairs_mean_distance() > 0
        assert TorusTopology(1, 1).all_pairs_mean_distance() == 0.0

    @given(width=st.integers(2, 6), height=st.integers(2, 6),
           src=st.integers(0, 35), dst=st.integers(0, 35))
    @settings(max_examples=60, deadline=None)
    def test_following_minimal_directions_reaches_destination(self, width, height, src, dst):
        topo = TorusTopology(width, height)
        src %= topo.num_switches
        dst %= topo.num_switches
        current = src
        hops = 0
        while current != dst:
            options = topo.minimal_directions(current, dst)
            assert options and options[0] != Direction.LOCAL
            current = topo.neighbor(current, options[0])
            hops += 1
            assert hops <= topo.distance(src, dst)
        assert hops == topo.distance(src, dst)

    @given(width=st.integers(2, 6), height=st.integers(2, 6),
           src=st.integers(0, 35), dst=st.integers(0, 35))
    @settings(max_examples=60, deadline=None)
    def test_dimension_order_route_length_is_minimal(self, width, height, src, dst):
        topo = TorusTopology(width, height)
        src %= topo.num_switches
        dst %= topo.num_switches
        current, hops = src, 0
        while current != dst:
            current = topo.neighbor(current, topo.dimension_order_direction(current, dst))
            hops += 1
            assert hops <= width + height
        assert hops == topo.distance(src, dst)


class TestRouting:
    def test_static_routing_is_deterministic(self):
        topo = TorusTopology(4, 4)
        routing = DimensionOrderRouting(topo)
        message = _msg(0, 10)
        choices = {routing.route(0, message, lambda d: 0) for _ in range(5)}
        assert len(choices) == 1

    def test_static_routing_ignores_congestion(self):
        topo = TorusTopology(4, 4)
        routing = DimensionOrderRouting(topo)
        message = _msg(0, 5)
        baseline = routing.route(0, message, lambda d: 0)
        congested = routing.route(0, message, lambda d: 100)
        assert baseline == congested

    def test_adaptive_prefers_less_congested_direction(self):
        topo = TorusTopology(4, 4)
        routing = AdaptiveMinimalRouting(topo)
        message = _msg(0, 5)  # minimal directions: EAST and SOUTH
        choice = routing.route(0, message, lambda d: 10 if d == Direction.EAST else 0)
        assert choice == Direction.SOUTH

    def test_adaptive_tie_prefers_dimension_order(self):
        topo = TorusTopology(4, 4)
        routing = AdaptiveMinimalRouting(topo)
        message = _msg(0, 5)
        assert routing.route(0, message, lambda d: 0) == \
               topo.dimension_order_direction(0, 5)

    def test_adaptive_single_direction_has_no_choice(self):
        topo = TorusTopology(4, 4)
        routing = AdaptiveMinimalRouting(topo)
        message = _msg(0, 2)  # same row: only X movement
        assert routing.route(0, message, lambda d: 0) in (Direction.EAST, Direction.WEST)

    def test_disable_until_forces_dimension_order(self):
        topo = TorusTopology(4, 4)
        routing = AdaptiveMinimalRouting(topo)
        clock = {"now": 0}
        routing.bind_clock(lambda: clock["now"])
        routing.disable_until(100)
        message = _msg(0, 5)
        # Congestion would normally push the message south; disabled => east.
        choice = routing.route(0, message, lambda d: 10 if d == Direction.EAST else 0)
        assert choice == Direction.EAST
        clock["now"] = 101
        assert routing.route(0, message, lambda d: 10 if d == Direction.EAST else 0) == Direction.SOUTH

    def test_enable_clears_disable_window(self):
        topo = TorusTopology(4, 4)
        routing = AdaptiveMinimalRouting(topo)
        routing.bind_clock(lambda: 0)
        routing.disable_until(1000)
        routing.enable()
        assert routing.currently_adaptive

    def test_tie_without_dimension_order_picks_smallest_name(self):
        topo = TorusTopology(4, 4)
        routing = AdaptiveMinimalRouting(topo)
        assert routing._static_table[0][5] == Direction.EAST
        # No 4x4 torus pair has three minimal directions, so give 0 -> 5 a
        # private row: the dimension-order direction is congested and the
        # other three tie, the smallest name listed last.
        row = list(routing._minimal_table[0])
        row[5] = [Direction.EAST, Direction.WEST, Direction.SOUTH, Direction.NORTH]
        routing._minimal_table = [row] + routing._minimal_table[1:]
        choice = routing.route(0, _msg(0, 5),
                               lambda d: 5 if d == Direction.EAST else 0)
        assert choice == Direction.NORTH
        assert routing.decisions == 1
        assert routing.non_dimension_order_choices == 1

    def test_non_dimension_order_choices_counted(self):
        topo = TorusTopology(4, 4)
        routing = AdaptiveMinimalRouting(topo)
        message = _msg(0, 5)
        routing.route(0, message, lambda d: 5 if d == Direction.EAST else 0)
        assert routing.non_dimension_order_choices == 1

    def test_factory(self):
        topo = TorusTopology(4, 4)
        assert isinstance(make_routing("static", topo), DimensionOrderRouting)
        assert isinstance(make_routing("adaptive", topo), AdaptiveMinimalRouting)
        with pytest.raises(ValueError):
            make_routing("xy-ish", topo)

    def test_is_adaptive_flags(self):
        topo = TorusTopology(4, 4)
        assert not DimensionOrderRouting(topo).is_adaptive
        assert AdaptiveMinimalRouting(topo).is_adaptive
