"""Tests for membership services and the continuous churn process."""

import random

import pytest
from reference import EagerViews

from repro.core import ProbabilisticBiquorum, RandomStrategy
from repro.experiments import WorkloadSpec, run_workload_sequential
from repro.membership import FullMembership, RandomMembership, uniform_sample
from repro.services.kvstore import QuorumKVStore
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

    def test_late_joiner_takes_the_current_view_size(self):
        net = make_net(n=50)
        m = RandomMembership(net)
        assert m.view_size == 14
        for node in range(20):
            net.fail_node(node)
        new = net.join_node()
        assert len(m.view(49)) == 14  # the epoch's size, fails included
        assert len(m.view(new)) == m.view_size == 11
        assert set(m.view(new)) <= set(net.alive_nodes())

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
    def test_lazy_views_equal_the_eager_epoch_recipe(self, n, view_size):
        # A view is drawn on first read, from its own (epoch, node)
        # stream, so no read order and no subset of reads can move it:
        # each one equals what the eager recipe drew at the refresh —
        # read in id order, in reverse, as a random subset, or with
        # fails and joins after the refresh; across churn between
        # refreshes (gaps in the id range) and a second refresh.
        for order in ("id", "reverse", "subset", "churn"):
            net = SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=2,
                                           require_connected=False))
            m = RandomMembership(net, view_size=view_size,
                                 rng=random.Random(17))
            oracle = EagerViews(net, random.Random(17), view_size)
            picker = random.Random(5)
            for _ in range(2):
                ids = net.alive_nodes()
                if order == "reverse":
                    ids.reverse()
                elif order == "subset":
                    ids = picker.sample(ids, (len(ids) + 1) // 2)
                elif order == "churn":
                    half = ids[:len(ids) // 2]
                    for node in half:
                        assert m.view(node) == oracle.view(node)
                    net.fail_node(ids[0])
                    net.fail_node(ids[-1])
                    ids = ids[len(half):] + [ids[0], net.join_node()]
                for node in ids:
                    assert m.view(node) == oracle.view(node), (order, node)
                if n > 10:
                    net.fail_node(3)
                    net.fail_node(n - 1)
                    net.join_node()
                m.refresh()
                oracle.refresh()
            assert m.rng.getstate() == oracle.rng.getstate()  # in step

        # A refresh is one draw from the membership stream.
        twin = random.Random()
        twin.setstate(m.rng.getstate())
        m.refresh()
        twin.getrandbits(64)
        assert m.rng.getstate() == twin.getstate()

    def test_views_of_ids_never_assigned_are_refused(self):
        net = make_net(n=20)
        m = RandomMembership(net)
        for bad in (-5, -1, 20, 10**6):
            with pytest.raises(ValueError, match=str(bad)):
                m.view(bad)
            with pytest.raises(ValueError, match=str(bad)):
                m.sample_for(bad, 3, random.Random(0))
        net.fail_node(19)
        assert 19 not in m.view(19)  # assigned, failed: still a view
        joiner = net.join_node()
        assert joiner == 20 and len(m.view(joiner)) == m.view_size

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


class TestMembershipEpochWork:
    """Noise-free work counts of the lazy view epochs: a refresh draws
    no view, and a run draws exactly the views it reads."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"drawn": [], "read": set(), "epochs": 0}
        draw, sample = RandomMembership._draw, RandomMembership.sample
        refresh = RandomMembership.refresh

        def counted_draw(m, node_id):
            counts["drawn"].append((m._epoch, node_id))
            return draw(m, node_id)

        def counted_sample(m, k, rng, node_id, exclude=None):
            counts["read"].add((m._epoch, node_id))
            return sample(m, k, rng, node_id, exclude)

        def counted_refresh(m):
            counts["epochs"] += 1
            refresh(m)

        monkeypatch.setattr(RandomMembership, "_draw", counted_draw)
        monkeypatch.setattr(RandomMembership, "sample", counted_sample)
        monkeypatch.setattr(RandomMembership, "refresh", counted_refresh)
        return counts

    def test_refresh_draws_no_view_and_one_stream_draw(self, counts):
        net = SimNetwork(NetworkConfig(n=400, avg_degree=10, seed=0))
        m = RandomMembership(net)
        twin = random.Random()
        twin.setstate(m.rng.getstate())
        m.refresh()
        twin.getrandbits(64)
        assert counts["epochs"] == 2 and counts["drawn"] == []
        assert m.rng.getstate() == twin.getstate()

    def test_a_kv_run_draws_only_the_views_it_reads(self, counts):
        n = 100
        net = SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=4))
        m = RandomMembership(net)
        biquorum = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(m), lookup=RandomStrategy(m),
            advertise_size=12, lookup_size=12,
            adjust_to_network_size=False)
        run_workload_sequential(
            QuorumKVStore(biquorum, lease_ttl=300.0),
            WorkloadSpec(ops=120, n_keys=16, arrival_rate=0.2, seed=3))
        drawn, read = counts["drawn"], counts["read"]
        assert counts["epochs"] == 6
        assert len(drawn) == len(set(drawn)) == len(read) == 109
        assert set(drawn) == read
        assert len(read) < counts["epochs"] * n / 5


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
