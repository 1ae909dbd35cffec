"""Property-based tests (hypothesis) on the library's core invariants."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import check_tree

from repro.analysis import (
    intersection_after_churn,
    miss_probability_bound,
    miss_probability_exact,
    required_quorum_product,
)
from repro.core import UniquePathStrategy, plan_sizes, RandomStrategy
from repro.membership import FullMembership
from repro.randomwalk import random_walk, reverse_path_of, send_reply
from repro.simnet import NetworkConfig, SimNetwork


def _hypergeometric_miss(qa: int, ql: int, n: int) -> float:
    """Reference: C(n - ql, qa) / C(n, qa)."""
    if qa + ql > n:
        return 0.0
    return math.comb(n - ql, qa) / math.comb(n, qa)


class TestIntersectionProperties:
    @given(st.integers(2, 400), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=80)
    def test_exact_matches_hypergeometric(self, n, qa, ql):
        qa, ql = min(qa, n), min(ql, n)
        assert miss_probability_exact(qa, ql, n) == pytest.approx(
            _hypergeometric_miss(qa, ql, n), abs=1e-12)

    @given(st.integers(4, 400), st.floats(0.01, 0.5))
    @settings(max_examples=60)
    def test_planned_product_meets_corollary(self, n, eps):
        net = None  # strategies don't need the net for planning
        sizing = plan_sizes(n, eps, RandomStrategy(None),
                            UniquePathStrategy())
        if sizing.advertise_size < n and sizing.lookup_size < n:
            assert sizing.product >= required_quorum_product(n, eps) - 1

    @given(st.integers(4, 400), st.floats(0.01, 0.5))
    @settings(max_examples=60)
    def test_planned_sizes_guarantee_epsilon(self, n, eps):
        sizing = plan_sizes(n, eps, RandomStrategy(None),
                            UniquePathStrategy())
        qa = min(sizing.advertise_size, n)
        ql = min(sizing.lookup_size, n)
        if qa < n and ql < n:
            assert miss_probability_exact(qa, ql, n) <= eps + 1e-9

    @given(st.floats(0.01, 0.5), st.floats(0.0, 0.9))
    @settings(max_examples=60)
    def test_degradation_in_unit_interval(self, eps, f):
        for mode in ("failures-constant", "failures-adjusted",
                     "joins-constant", "joins-adjusted", "both"):
            val = intersection_after_churn(eps, f, mode)
            assert 0.0 <= val <= 1.0

    @given(st.floats(0.01, 0.5), st.floats(0.0, 0.8), st.floats(0.0, 0.19))
    @settings(max_examples=60)
    def test_degradation_monotone_in_f(self, eps, f, df):
        for mode in ("joins-constant", "both", "failures-adjusted"):
            assert (intersection_after_churn(eps, f + df, mode)
                    <= intersection_after_churn(eps, f, mode) + 1e-12)

    @given(st.integers(10, 300), st.integers(1, 15), st.integers(1, 15))
    @settings(max_examples=60)
    def test_bound_dominates_exact(self, n, qa, ql):
        qa, ql = min(qa, n), min(ql, n)
        assert (miss_probability_exact(qa, ql, n)
                <= miss_probability_bound(qa, ql, n) + 1e-12)


class TestNetworkStructuralProperties:
    @given(st.integers(0, 30), st.integers(1, 4))
    @settings(max_examples=12, deadline=None)
    def test_flood_covers_exact_bfs_ball(self, seed, ttl):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=10, seed=seed % 6))
        origin = seed % net.n_alive
        outcome = net.flood(origin, ttl=ttl)
        # Ground-truth BFS ball of radius ttl.
        dist = {origin: 0}
        queue = deque([origin])
        while queue:
            u = queue.popleft()
            if dist[u] >= ttl:
                continue
            for v in net.true_neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert outcome.covered == dist

    @given(st.integers(0, 30))
    @settings(max_examples=12, deadline=None)
    def test_route_path_is_shortest(self, seed):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=10, seed=seed % 6))
        src, dst = 0, net.n_alive - 1
        result = net.route(src, dst)
        if not result.success:
            return
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in net.true_neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert result.hops == dist[dst]

    @given(st.integers(0, 40), st.integers(3, 25))
    @settings(max_examples=12, deadline=None)
    def test_walk_then_reply_invariants(self, seed, target):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=10, seed=seed % 6))
        walk = random_walk(net, 0, target_unique=min(target, 30),
                           rng=random.Random(seed))
        if not walk.completed:
            return
        rpath = reverse_path_of(walk.path)
        reply = send_reply(net, rpath)
        # Static network: replies always arrive, never longer than the path.
        assert reply.success
        assert reply.hops_taken <= len(rpath) - 1
        assert reply.nodes_traversed[0] == rpath[0]
        assert reply.nodes_traversed[-1] == rpath[-1]

    @given(st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_unique_walk_message_bound(self, seed):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=10, seed=seed % 6))
        walk = random_walk(net, 0, target_unique=12, unique=True,
                           rng=random.Random(seed))
        if walk.completed:
            # A self-avoiding walk in a static net: steps == unique - 1
            # unless it ever got trapped and fell back to a random hop.
            assert walk.steps >= walk.unique_count - 1
            assert walk.messages == walk.steps  # no salvation needed


class TestRouteTreeProperty:
    """Every BFS route tree equals the early-exit BFS and the capped ring
    count, for every (source, destination) pair, on small plane and torus
    deployments that sparse radii partition and fail/join churn
    renumbers."""

    @given(st.integers(2, 150), st.booleans(), st.floats(0.3, 12.0),
           st.integers(0, 2 ** 16),
           st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)),
                    max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_tree_equals_oracle(self, n, torus, degree, seed, churn):
        net = SimNetwork(NetworkConfig(n=n, avg_degree=degree, seed=seed,
                                       torus=torus, require_connected=False))
        engine = net.access_engine
        # A tree between churn events leaves rows and a memo to go stale.
        for join, pick in churn:
            alive = net.alive_nodes()
            if join or len(alive) < 2:
                net.join_node()
            else:
                net.fail_node(alive[pick % len(alive)])
            engine.tree(net, net.alive_nodes()[pick % net.n_alive])
        tables = net._neighbor_tables()
        everyone = range(net._next_id)
        for src in everyone:
            check_tree(engine.tree(net, src), tables, src, everyone)


class TestBiquorumEndToEndProperty:
    @given(st.integers(0, 8), st.floats(0.05, 0.3))
    @settings(max_examples=6, deadline=None)
    def test_empirical_intersection_respects_epsilon(self, seed, eps):
        from repro.core import ProbabilisticBiquorum

        net = SimNetwork(NetworkConfig(n=80, avg_degree=10, seed=seed))
        membership = FullMembership(net)
        bq = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=UniquePathStrategy(), epsilon=eps)
        rng = random.Random(seed)
        hits = 0
        trials = 8
        for _ in range(trials):
            stored = set()
            bq.write(net.random_alive_node(rng), stored.add)
            res = bq.read(net.random_alive_node(rng),
                          lambda v: "x" if v in stored else None)
            hits += bool(res.found)
        # Bernoulli(>= 1 - eps) over 8 trials: allow generous slack, but
        # catastrophic failures (more than half missing) must not happen.
        assert hits >= trials // 2
