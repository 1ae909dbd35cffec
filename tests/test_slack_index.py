"""The mobile floor's slack index against the brute-force oracle.

Under waypoint mobility a ``SimNetwork`` answers every neighbor query
from one candidate index per validity window (``geometry.kernel.
SlackIndex``), filtered exactly at the query time, and evaluates
positions only for the rows a query reads.  Two things must hold:

* **exactness** — ``true_neighbors``, ``_neighbor_rows`` and
  ``_neighbor_tables`` equal the all-pairs ``distance <= r`` table with
  ``==`` anywhere in a window, at its last instant, just past it, and
  after churn inside it; discovery paths and costs equal the early-exit
  BFS of ``tests/reference/access.py``;
* **no draw moved** — the waypoint legs advance at the same queries, in
  the same order, as under the eager recipe that evaluates every alive
  position at every query timestamp (``reference.BruteForceNetwork``):
  same leg arrays, same mobility stream state.
"""

import math
import random

import numpy as np
import pytest
from reference import BruteForceNetwork, bfs_path, brute_force_tables, ring_size

from repro.geometry.kernel import SlackIndex, slack_window
from repro.mobility.models import SPEED_SLACK
from repro.randomwalk import random_walk
from repro.simnet.network import NetworkConfig, SimNetwork


def mobile_net(max_speed, torus, cls=SimNetwork, **kw):
    cfg = dict(n=70, avg_degree=9, seed=17, mobility="waypoint",
               min_speed=max_speed / 4, max_speed=max_speed,
               pause_time=1.0, torus=torus, require_connected=False)
    cfg.update(kw)
    return cls(NetworkConfig(**cfg))


def assert_exact(net):
    """Every neighbor consumer equals the all-pairs oracle right now."""
    alive = net.alive_nodes()
    answers = {v: net.true_neighbors(v) for v in alive}  # network first
    truth = brute_force_tables(net)
    assert answers == truth
    assert net._neighbor_tables() == truth
    rows = net._neighbor_rows()
    assert rows.ids == alive
    assert {rows.ids[i]: [rows.ids[j] for j in adj]
            for i, adj in enumerate(rows.adj)} == truth
    return truth


def assert_discovery_exact(net, pairs):
    """Discovery path and cost equal the early-exit BFS, hits and misses."""
    misses = 0
    for src, dst in pairs:
        if not (net.is_alive(src) and net.is_alive(dst)) or src == dst:
            continue
        truth = brute_force_tables(net)
        net.invalidate_routes()
        path, cost = net.discover_path(src, dst)
        want = bfs_path(truth, src, dst)
        assert path == want
        if want is None:
            misses += 1
            assert cost == ring_size(truth, src, len(truth))
        else:
            hops = len(want) - 1
            assert cost == ring_size(truth, src, hops) + hops
    return misses


class TestWindow:
    def test_radius_and_window_follow_the_speed_bound(self):
        window, reach = slack_window(200.0, 10.0, SPEED_SLACK)
        assert window == 200.0 / 80.0
        assert 250.0 < reach < 250.0 + 1e-5  # 1.25 r plus the margin
        assert slack_window(200.0, 0.0, SPEED_SLACK)[0] == math.inf

    def test_network_reads_the_window_from_the_model(self):
        net = mobile_net(20.0, torus=False)
        assert net._model.max_speed == 20.0
        assert net._window == net.config.radio_range / 160.0

    def test_candidates_cover_every_pair_within_reach(self):
        rng = random.Random(5)
        side, r = 500.0, 60.0
        ids = np.arange(0, 300, 3, dtype=np.intp)
        pos = np.array([[rng.uniform(0, side), rng.uniform(0, side)]
                        for _ in ids])
        for torus in (False, True):
            index = SlackIndex(ids, pos, 0.0, side, r, torus, 1.0, 1.25 * r)
            far = {int(i): [int(j) for j, q in zip(ids, pos)
                            if i != j and _dist(p, q, side, torus) <= 1.25 * r]
                   for i, p in zip(ids, pos)}
            assert dict(zip(index.id_list, index.candidate_ids)) == far
            near = index.adjacency(pos, as_ids=True)
            assert dict(zip(index.id_list, near)) == {
                i: [j for j in far[i]
                    if _dist(pos[i // 3], pos[j // 3], side, torus) <= r]
                for i in far}


def _dist(p, q, side, torus):
    dx, dy = abs(p[0] - q[0]), abs(p[1] - q[1])
    if torus:
        dx, dy = min(dx, side - dx), min(dy, side - dy)
    return math.sqrt(dx * dx + dy * dy)


@pytest.mark.parametrize("torus", [False, True])
@pytest.mark.parametrize("max_speed", [2.0, 10.0, 20.0])
class TestExactAgainstTheOracle:
    def test_inside_at_the_end_of_and_past_a_window(self, max_speed, torus):
        net = mobile_net(max_speed, torus)
        net.advance(5.0)
        for _ in range(3):
            assert_exact(net)
            index = net._slack
            net.advance(0.3 * net._window)       # inside the window
            assert_exact(net)
            assert net._slack is index
            net.run_until(index.expires)          # its last instant
            assert net.now == index.expires
            assert_exact(net)
            assert net._slack is index
            net.run_until(math.nextafter(index.expires, math.inf))
            assert_exact(net)                     # just past: rebuilt
            assert net._slack is not index

    def test_churn_inside_a_window(self, max_speed, torus):
        net = mobile_net(max_speed, torus)
        net.advance(3.0)
        assert_exact(net)
        net.fail_node(5)
        net.advance(0.2 * net._window)
        truth = assert_exact(net)
        assert 5 not in truth
        assert net.true_neighbors(5) == BruteForceNetwork.true_neighbors(
            net, 5)  # a dead query node answers from its last position
        joined = net.join_node()
        assert_exact(net)
        net.advance(0.2 * net._window)
        net.revive_node(5)
        truth = assert_exact(net)
        assert 5 in truth and joined in truth
        net.advance(0.2 * net._window)
        assert_exact(net)

    def test_discovery_and_scoped_route(self, max_speed, torus):
        net = mobile_net(max_speed, torus, avg_degree=3)
        pick = random.Random(int(max_speed) + 7 * torus)
        misses = 0
        for step in range(8):
            net.advance(pick.choice((0.05, 0.7, net._window)))
            if step == 4:
                net.fail_node(pick.choice(net.alive_nodes()))
            alive = net.alive_nodes()
            pairs = [(pick.choice(alive), pick.choice(alive))
                     for _ in range(6)]
            misses += assert_discovery_exact(net, pairs)
            src, dst = pick.choice(alive), pick.choice(alive)
            if src != dst:
                truth = brute_force_tables(net)
                want = bfs_path(truth, src, dst)
                result = net.scoped_route(src, dst, 3)
                assert result.routing_messages == ring_size(truth, src, 3)
                if want is None or len(want) > 4:
                    assert not result.success and result.path == []
        assert misses  # the sparse deployment does partition


class TestNoDrawMoved:
    """The lazy network draws exactly what the eager recipe draws.

    Walk-heavy, with hop-sized clock steps and short pauses: legs expire
    between full evaluations, so a network that advanced only the legs
    of the rows it reads would hand the shared stream's draws to the
    nodes in another order (checked against such a mutant).
    """

    def _script(self, net, seed):
        rng = random.Random(seed)
        walk_rng = random.Random(seed + 1)
        for _ in range(120):
            roll = rng.random()
            alive = net.alive_nodes()
            if roll < 0.2:
                net.advance(rng.choice((0.05, 0.6, 3.0)))
            elif roll < 0.45:
                src = rng.choice(alive)
                stale = net.known_neighbors(src)
                if stale:
                    net.one_hop_unicast(src, rng.choice(stale))
            elif roll < 0.55:
                net.discover_path(rng.choice(alive), rng.choice(alive))
            elif roll < 0.9:
                random_walk(net, rng.choice(alive), 10, unique=True,
                            rng=walk_rng)
            elif roll < 0.95:
                net.fail_node(rng.choice(alive))
            else:
                net.join_node()

    @pytest.mark.parametrize("torus", [False, True])
    def test_legs_and_stream_equal_the_eager_recipe(self, torus):
        kw = dict(n=90, avg_degree=10, min_speed=5.0, pause_time=0.5,
                  hop_latency=0.05)
        lazy = mobile_net(20.0, torus, **kw)
        eager = mobile_net(20.0, torus, cls=BruteForceNetwork, **kw)
        start = dict(lazy.mobility._legs)
        self._script(lazy, seed=3)
        self._script(eager, seed=3)
        assert lazy.now == eager.now
        assert lazy.alive_nodes() == eager.alive_nodes()
        for name in ("_t0", "_t1", "_p0", "_p1"):
            assert np.array_equal(getattr(lazy.mobility, name),
                                  getattr(eager.mobility, name))
        assert lazy.mobility._legs == eager.mobility._legs
        assert (lazy.rngs.stream("mobility").getstate()
                == eager.rngs.stream("mobility").getstate())
        assert lazy.counters == eager.counters
        assert lazy.energy.per_node == eager.energy.per_node
        moved = [v for v, leg in start.items()
                 if lazy.mobility._legs[v] != leg]
        assert len(moved) > 40  # the run did cross leg boundaries
