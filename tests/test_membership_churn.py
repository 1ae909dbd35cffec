"""Tests for membership services and the continuous churn process."""

import random

import pytest

from repro.membership import FullMembership, RandomMembership, uniform_sample
from repro.simnet import ChurnProcess, NetworkConfig, SimNetwork


def make_net(n=60, seed=0):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed))


class TestFullMembership:
    def test_view_covers_all_alive(self):
        net = make_net()
        m = FullMembership(net)
        assert m.view() == net.alive_nodes()

    def test_view_stale_until_refresh(self):
        net = make_net()
        m = FullMembership(net)
        net.fail_node(3)
        assert 3 in m.view()
        m.refresh()
        assert 3 not in m.view()

    def test_periodic_refresh(self):
        net = make_net()
        m = FullMembership(net, refresh_interval=5.0)
        net.fail_node(3)
        net.advance(6.0)
        assert 3 not in m.view()

    def test_sample_distinct(self):
        net = make_net()
        m = FullMembership(net)
        s = m.sample(10, random.Random(0))
        assert len(set(s)) == 10

    def test_sample_excludes(self):
        net = make_net()
        m = FullMembership(net)
        for _ in range(20):
            assert 5 not in m.sample(10, random.Random(0), exclude=5)

    def test_sample_for_excludes_self(self):
        net = make_net()
        m = FullMembership(net)
        assert 7 not in m.sample_for(7, 59, random.Random(1))

    def test_sample_larger_than_pool(self):
        net = make_net(n=50)
        m = FullMembership(net)
        s = m.sample(100, random.Random(0))
        assert len(s) == 50

    def test_stop_halts_timer(self):
        net = make_net()
        m = FullMembership(net, refresh_interval=5.0)
        m.stop()
        net.fail_node(3)
        net.advance(20.0)
        assert 3 in m.view()


class TestRandomMembership:
    def test_default_view_size_is_2_sqrt_n(self):
        net = make_net(n=100)
        m = RandomMembership(net)
        assert m.view_size == 20
        assert len(m.view(0)) == 20

    def test_view_excludes_self(self):
        net = make_net()
        m = RandomMembership(net)
        for node in (0, 10, 30):
            assert node not in m.view(node)

    def test_views_differ_across_nodes(self):
        net = make_net(n=100)
        m = RandomMembership(net)
        assert any(set(m.view(i)) != set(m.view(j))
                   for i in range(5) for j in range(5, 10))

    def test_views_approximately_uniform(self):
        net = make_net(n=100, seed=3)
        m = RandomMembership(net)
        counts = {}
        for node in net.alive_nodes():
            for member in m.view(node):
                counts[member] = counts.get(member, 0) + 1
        # Every node should appear in some views; none wildly dominant.
        assert len(counts) >= 95
        assert max(counts.values()) <= 6 * (sum(counts.values()) / len(counts))

    def test_late_joiner_bootstraps_view(self):
        net = make_net()
        m = RandomMembership(net)
        new = net.join_node()
        assert len(m.view(new)) > 0

    def test_explicit_view_size(self):
        net = make_net()
        m = RandomMembership(net, view_size=5)
        assert len(m.view(0)) == 5

    def test_sample_for_within_view(self):
        net = make_net()
        m = RandomMembership(net)
        sample = m.sample_for(0, 5, random.Random(0))
        assert set(sample) <= set(m.view(0))

    def test_refresh_redraws_views(self):
        net = make_net(n=100)
        m = RandomMembership(net)
        before = list(m.view(0))
        m.refresh()
        # Overwhelmingly likely to change for a 20-of-99 draw.
        assert m.view(0) != before or len(before) == 99

    @pytest.mark.parametrize("n, view_size", [(60, None), (7, 30), (1, None)])
    def test_refresh_equals_the_filtering_recipe(self, n, view_size):
        # A node's pool is "every alive id but its own, in id order";
        # refresh builds it from two slices, the recipe by filtering.
        # Same pools, so the same draws from the same stream — across
        # churn (gaps in the id range) and a second refresh.
        net = SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=2,
                                       require_connected=False))
        m = RandomMembership(net, view_size=view_size,
                             rng=random.Random(17))
        recipe_rng = random.Random(17)

        def recipe():
            alive = net.alive_nodes()
            views = {}
            for node in alive:
                pool = [v for v in alive if v != node]
                views[node] = recipe_rng.sample(
                    pool, min(m.view_size, len(pool)))
            return views

        assert m._views == recipe()
        if n > 10:
            net.fail_node(3)
            net.fail_node(n - 1)
            net.join_node()
        m.refresh()
        assert m._views == recipe()
        assert m.rng.random() == recipe_rng.random()  # streams in step

    def test_sample_draws_from_the_stored_view(self):
        net = make_net()
        m = RandomMembership(net)
        held = list(m.view(4))
        everything = m.sample(len(held) + 3, random.Random(1), 4, exclude=4)
        assert everything == held
        everything.append(-7)  # the caller's list, not the stored view
        assert m.view(4) == held
        assert m.sample(5, random.Random(3), 4) == random.Random(3).sample(
            held, 5)


class TestUniformSample:
    def test_distinct_and_subset(self):
        s = uniform_sample(list(range(50)), 10, random.Random(0))
        assert len(set(s)) == 10
        assert set(s) <= set(range(50))

    def test_whole_universe_when_k_large(self):
        assert sorted(uniform_sample([1, 2, 3], 10, random.Random(0))) == [1, 2, 3]


class TestChurnProcess:
    def test_failures_accumulate(self):
        net = make_net(n=80, seed=1)
        proc = ChurnProcess(net, failure_rate=1.0, rng=random.Random(0))
        net.advance(30.0)
        assert proc.failures > 10
        assert net.n_alive == 80 - proc.failures

    def test_joins_accumulate(self):
        net = make_net(n=40, seed=1)
        proc = ChurnProcess(net, join_rate=0.5, rng=random.Random(0))
        net.advance(30.0)
        assert proc.joins > 5
        assert net.n_alive == 40 + proc.joins

    def test_stop_halts_churn(self):
        net = make_net(n=80, seed=1)
        proc = ChurnProcess(net, failure_rate=1.0, rng=random.Random(0))
        net.advance(5.0)
        count = proc.failures
        proc.stop()
        net.advance(30.0)
        assert proc.failures == count

    def test_protected_nodes_survive(self):
        net = make_net(n=40, seed=2)
        ChurnProcess(net, failure_rate=2.0, rng=random.Random(0),
                     protected={0})
        net.advance(15.0)
        assert net.is_alive(0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ChurnProcess(make_net(), failure_rate=-1.0)
