"""Tests for mobility models and the mobility manager."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.space import distance
from repro.mobility import (
    FixedPlacement,
    Leg,
    MobilityManager,
    RandomWaypoint,
    StaticPlacement,
)
from repro.mobility.models import SPEED_SLACK


class TestLeg:
    def test_interpolates_linearly(self):
        leg = Leg(t0=0.0, p0=(0.0, 0.0), t1=10.0, p1=(10.0, 0.0))
        assert leg.position_at(5.0) == (5.0, 0.0)

    def test_clamps_before_start(self):
        leg = Leg(t0=2.0, p0=(1.0, 1.0), t1=4.0, p1=(3.0, 3.0))
        assert leg.position_at(0.0) == (1.0, 1.0)

    def test_clamps_after_end(self):
        leg = Leg(t0=2.0, p0=(1.0, 1.0), t1=4.0, p1=(3.0, 3.0))
        assert leg.position_at(10.0) == (3.0, 3.0)

    def test_pause_leg_constant(self):
        leg = Leg(t0=0.0, p0=(2.0, 2.0), t1=5.0, p1=(2.0, 2.0))
        assert leg.position_at(2.5) == (2.0, 2.0)

    def test_infinite_leg(self):
        leg = Leg(t0=0.0, p0=(1.0, 1.0), t1=math.inf, p1=(1.0, 1.0))
        assert leg.position_at(1e9) == (1.0, 1.0)


class TestStaticPlacement:
    def test_positions_in_bounds(self):
        model = StaticPlacement(side=50.0, rng=random.Random(0))
        for nid in range(20):
            x, y = model.initial_position(nid)
            assert 0 <= x <= 50 and 0 <= y <= 50

    def test_nodes_never_move(self):
        model = StaticPlacement(side=50.0, rng=random.Random(0))
        mgr = MobilityManager(model)
        p0 = mgr.add_node(0)
        assert mgr.position_at(0, 1e6) == p0

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            StaticPlacement(side=0.0, rng=random.Random(0))


class TestFixedPlacement:
    def test_uses_given_positions(self):
        model = FixedPlacement([(1.0, 2.0), (3.0, 4.0)])
        assert model.initial_position(1) == (3.0, 4.0)


class TestRandomWaypoint:
    def make(self, **kw):
        defaults = dict(side=100.0, min_speed=1.0, max_speed=2.0,
                        pause_time=5.0, rng=random.Random(3))
        defaults.update(kw)
        return RandomWaypoint(**defaults)

    def test_stays_in_bounds(self):
        mgr = MobilityManager(self.make())
        mgr.add_node(0)
        for t in range(0, 500, 7):
            x, y = mgr.position_at(0, float(t))
            assert -1e-9 <= x <= 100 + 1e-9
            assert -1e-9 <= y <= 100 + 1e-9

    def test_node_actually_moves(self):
        mgr = MobilityManager(self.make(pause_time=0.0))
        p0 = mgr.add_node(0)
        p1 = mgr.position_at(0, 200.0)
        assert p0 != p1

    def test_speed_respected_on_first_leg(self):
        model = self.make(pause_time=0.0)
        mgr = MobilityManager(model)
        p0 = mgr.add_node(0, t=0.0)
        dt = 0.5
        p1 = mgr.position_at(0, dt)
        dist = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
        assert dist <= model.max_speed * dt + 1e-9

    def test_pause_alternates(self):
        model = self.make(pause_time=1000.0)
        mgr = MobilityManager(model)
        mgr.add_node(0, t=0.0)
        # After the first (move) leg completes, a long pause follows:
        p_mid = mgr.position_at(0, 300.0)
        p_later = mgr.position_at(0, 400.0)
        # During a 1000 s pause positions should match at some window.
        assert p_mid == p_later or p_mid != p_later  # smoke: no crash
        # Stronger: directly request legs.
        leg1 = model.next_leg(1, 0.0, (5.0, 5.0))
        leg2 = model.next_leg(1, leg1.t1, leg1.p1)
        assert leg2.p0 == leg2.p1  # pause leg
        assert leg2.t1 - leg2.t0 == 1000.0

    def test_invalid_speeds(self):
        with pytest.raises(ValueError):
            self.make(min_speed=0.0)
        with pytest.raises(ValueError):
            self.make(min_speed=3.0, max_speed=2.0)

    def test_invalid_pause(self):
        with pytest.raises(ValueError):
            self.make(pause_time=-1.0)

    def test_average_speed_in_range(self):
        model = self.make()
        # A leg's speed is uniform on [min_speed, max_speed].
        assert 1.0 < (model.min_speed + model.max_speed) / 2 < 2.0


class TestMobilityManager:
    def test_add_remove(self):
        mgr = MobilityManager(StaticPlacement(10.0, rng=random.Random(0)))
        mgr.add_node(1)
        assert 1 in mgr
        mgr.remove_node(1)
        assert 1 not in mgr

    def test_explicit_position(self):
        mgr = MobilityManager(StaticPlacement(10.0, rng=random.Random(0)))
        mgr.add_node(0, position=(3.0, 4.0))
        assert mgr.position_at(0, 0.0) == (3.0, 4.0)

    def test_snapshot_covers_all(self):
        mgr = MobilityManager(StaticPlacement(10.0, rng=random.Random(0)))
        for i in range(5):
            mgr.add_node(i)
        snap = mgr.snapshot(0.0)
        assert sorted(snap) == list(range(5))

    def test_queries_are_monotone_consistent(self):
        model = RandomWaypoint(side=100.0, min_speed=1.0, max_speed=1.0,
                               pause_time=0.0, rng=random.Random(1))
        mgr = MobilityManager(model)
        mgr.add_node(0, t=0.0)
        a = mgr.position_at(0, 10.0)
        b = mgr.position_at(0, 10.0)
        assert a == b

    def test_node_ids(self):
        mgr = MobilityManager(StaticPlacement(10.0, rng=random.Random(0)))
        mgr.add_node(3)
        mgr.add_node(7)
        assert sorted(mgr.node_ids()) == [3, 7]


class _ScriptedLegs(RandomWaypoint):
    """Waypoint model whose first leg per node is handed in."""

    def __init__(self, first_legs, **kw):
        super().__init__(**kw)
        self._first = dict(first_legs)

    def next_leg(self, node_id, t, pos):
        leg = self._first.pop(node_id, None)
        return leg if leg is not None else super().next_leg(node_id, t, pos)


class TestVectorisedPositions:
    """``positions_at`` is ``position_at`` spelled over arrays: equal
    bit for bit, model draws included."""

    def test_every_leg_shape_matches_leg_position_at(self):
        legs = {
            0: Leg(t0=2.0, p0=(1.0, 7.0), t1=12.0, p1=(9.5, 0.25)),   # moving
            1: Leg(t0=2.0, p0=(3.3, 4.4), t1=32.0, p1=(3.3, 4.4)),    # pause
            2: Leg(t0=2.0, p0=(6.0, 6.0), t1=math.inf, p1=(6.0, 6.0)),
            3: Leg(t0=5.0, p0=(8.0, 1.0), t1=5.0, p1=(2.0, 2.0)),     # empty
            4: Leg(t0=6.0, p0=(0.1, 0.2), t1=7.0, p1=(0.3, 0.9)),
        }
        mgr = MobilityManager(_ScriptedLegs(legs, side=10.0,
                                            rng=random.Random(0)))
        for i, leg in legs.items():
            mgr.add_node(i, t=0.0, position=leg.p0)
        # Before t0, at t0, inside, at t1: no query is past a finite t1,
        # so no leg is advanced and the handed-in Leg is the reference.
        for ids, times in (([0, 1, 2, 3, 4], (0.0, 2.0, 4.999, 5.0)),
                           ([0, 1, 2, 4], (6.0, 6.5, 7.0)),
                           ([0, 1, 2], (11.9, 12.0)),
                           ([1, 2], (31.0, 32.0)),
                           ([2], (1e9,))):
            for t in times:
                got = mgr.positions_at(np.array(ids), t)
                assert [tuple(row) for row in got.tolist()] == \
                       [legs[i].position_at(t) for i in ids]
        assert mgr._legs == legs

    def test_same_trajectories_and_draws_as_the_scalar_loop(self):
        def manager():
            mgr = MobilityManager(RandomWaypoint(
                side=300.0, min_speed=2.0, max_speed=40.0, pause_time=0.7,
                rng=random.Random(12)))
            for i in range(30):
                mgr.add_node(i, t=0.0)
            return mgr

        vec, ref = manager(), manager()
        ids = np.array([i for i in range(30) if i % 7 != 3])
        clock = random.Random(4)
        t = 0.0
        advanced = 0
        for _ in range(400):
            t += clock.choice((0.0, 0.05, 0.6, 9.0))
            before = dict(ref._legs)
            want = [ref.position_at(int(i), t) for i in ids]
            advanced += before != ref._legs
            got = vec.positions_at(ids, t)
            assert [tuple(row) for row in got.tolist()] == want
            assert vec._legs == ref._legs
        assert advanced > 50  # the run did cross leg boundaries

    def test_negative_id_rejected(self):
        mgr = MobilityManager(StaticPlacement(10.0, rng=random.Random(0)))
        with pytest.raises(ValueError):
            mgr.add_node(-1)


class TestSpeedBound:
    """``MobilityModel.max_speed`` is a displacement bound: what the
    mobile floor's slack index relies on (``geometry.kernel.slack_window``)."""

    def test_static_models_declare_zero(self):
        assert StaticPlacement(10.0, rng=random.Random(0)).max_speed == 0.0
        assert FixedPlacement([(1.0, 2.0)]).max_speed == 0.0
        model = RandomWaypoint(side=10.0, min_speed=1.0, max_speed=7.5,
                               rng=random.Random(0))
        assert model.max_speed == 7.5

    @given(v_max=st.floats(0.5, 20.0), low=st.floats(0.0, 1.0),
           pause=st.sampled_from([0.0, 0.3, 5.0, 30.0]),
           side=st.floats(10.0, 5000.0), seed=st.integers(0, 2 ** 32),
           steps=st.lists(st.floats(0.0, 40.0), min_size=2, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_displacement_within_speed_times_time(self, v_max, low, pause,
                                                  side, seed, steps):
        # Queries at nondecreasing times, across leg boundaries and
        # pauses; every pair of them, not only neighbours, obeys the
        # bound up to the stated float slack.
        min_speed = max(0.5, low * v_max)
        mgr = MobilityManager(RandomWaypoint(
            side=side, min_speed=min(min_speed, v_max), max_speed=v_max,
            pause_time=pause, rng=random.Random(seed)))
        mgr.add_node(0, t=0.0)
        mgr.add_node(1, t=0.0)
        t, seen = 0.0, []
        for dt in steps:
            t += dt
            pos = mgr.positions_at(np.array([0, 1]), t)
            seen.append((t, mgr.position_at(0, t), tuple(pos[1])))
            assert seen[-1][1] == tuple(pos[0])
        for i, (t1, a1, b1) in enumerate(seen):
            for t2, a2, b2 in seen[i:]:
                bound = v_max * (t2 - t1) + SPEED_SLACK
                assert distance(a1, a2, side, False) <= bound
                assert distance(b1, b2, side, False) <= bound
