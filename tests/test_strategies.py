"""Tests for the five quorum access strategies."""

import math
import random

import pytest

from repro.core import (
    FloodingStrategy,
    PathStrategy,
    RandomOptStrategy,
    RandomSamplingStrategy,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.membership import FullMembership, RandomMembership
from repro.simnet import NetworkConfig, SimNetwork


def make_net(n=100, seed=0, **kw):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed, **kw))


def store_recorder():
    stored = []
    return stored, stored.append


def probe_for(targets, value="v"):
    hit_set = set(targets)

    def probe(node):
        return value if node in hit_set else None

    return probe


class TestRandomStrategy:
    def test_advertise_reaches_target_size(self):
        net = make_net()
        strategy = RandomStrategy(FullMembership(net))
        stored, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=15)
        assert result.success
        assert result.quorum_size == 15
        assert sorted(stored) == result.quorum

    def test_advertise_quorum_is_distinct_and_excludes_origin(self):
        net = make_net()
        strategy = RandomStrategy(FullMembership(net))
        stored, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=20)
        assert len(set(result.quorum)) == 20
        assert 0 not in result.quorum

    def test_advertise_counts_route_messages(self):
        net = make_net()
        strategy = RandomStrategy(FullMembership(net))
        _, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=10)
        # Multi-hop: strictly more messages than quorum members.
        assert result.messages > 10
        assert result.routing_messages > 0

    def test_adaptation_replaces_dead_members(self):
        net = make_net(seed=1)
        membership = FullMembership(net)
        # Kill 20 nodes but leave the membership view stale.
        victims = [v for v in range(1, 40) if net.is_alive(v)][:20]
        for v in victims:
            net.fail_node(v)
        strategy = RandomStrategy(membership, adaptation_retries=3)
        stored, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=15)
        assert all(net.is_alive(v) for v in result.quorum)
        assert result.quorum_size >= 10  # adaptation mostly compensates

    def test_lookup_finds_advertised_data(self):
        net = make_net()
        strategy = RandomStrategy(FullMembership(net))
        _, store = store_recorder()
        adv = strategy.advertise(net, 0, store, target_size=25)
        result = strategy.lookup(net, 50, probe_for(adv.quorum),
                                 target_size=25)
        assert result.found
        assert result.hit_node in adv.quorum
        assert result.hit_value == "v"
        assert result.reply_delivered

    def test_lookup_miss_completes_access(self):
        net = make_net()
        strategy = RandomStrategy(FullMembership(net))
        result = strategy.lookup(net, 0, probe_for([]), target_size=10)
        assert not result.found
        assert result.success  # full quorum accessed
        assert result.quorum_size == 10

    def test_serial_lookup_halts_after_hit(self):
        net = make_net()
        strategy = RandomStrategy(FullMembership(net), serial_lookup=True,
                                  rng=random.Random(5))
        all_nodes = set(net.alive_nodes()) - {0}
        result = strategy.lookup(net, 0, probe_for(all_nodes),
                                 target_size=20)
        assert result.found
        assert result.quorum_size == 1  # halted on first contact

    def test_works_with_random_membership(self):
        net = make_net()
        strategy = RandomStrategy(RandomMembership(net))
        _, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=10)
        assert result.quorum_size == 10


class TestRandomSamplingStrategy:
    def test_advertise_without_membership_or_routing(self):
        net = make_net(n=60, seed=2)
        strategy = RandomSamplingStrategy(walk_length=30)
        stored, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=6)
        assert result.quorum_size >= 5  # occasional dropped walks tolerated
        assert result.routing_messages == 0

    def test_costs_scale_with_mixing_time(self):
        net = make_net(n=60, seed=2)
        strategy = RandomSamplingStrategy(walk_length=30)
        _, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=6)
        # ~|Q| * T_mix transmissions, way above |Q|.
        assert result.messages >= 6 * 15

    def test_lookup_reply_over_walk_reverse_path(self):
        net = make_net(n=60, seed=2)
        strategy = RandomSamplingStrategy(walk_length=30)
        all_nodes = set(net.alive_nodes()) - {0}
        result = strategy.lookup(net, 0, probe_for(all_nodes), target_size=4)
        assert result.found
        assert result.reply_delivered


class TestPathStrategies:
    def test_advertise_stores_along_walk(self):
        net = make_net()
        strategy = PathStrategy()
        stored, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=12)
        assert result.success
        assert result.quorum_size == 12
        assert 0 in result.quorum  # walk includes the originator

    def test_unique_path_cheaper_than_simple(self):
        net = make_net(seed=3)
        simple = PathStrategy(rng=random.Random(1))
        uniq = UniquePathStrategy(rng=random.Random(1))
        _, store = store_recorder()
        cost_simple = sum(
            simple.advertise(net, v, store, 25).messages for v in range(5))
        cost_unique = sum(
            uniq.advertise(net, v, store, 25).messages for v in range(5))
        assert cost_unique <= cost_simple

    def test_strategy_names(self):
        assert PathStrategy().name == "PATH"
        assert PathStrategy(unique=True).name == "UNIQUE-PATH"
        assert UniquePathStrategy().name == "UNIQUE-PATH"

    def test_lookup_early_halt_on_hit(self):
        net = make_net()
        advertise_nodes = set(net.alive_nodes())  # datum everywhere
        strategy = UniquePathStrategy(rng=random.Random(2))
        result = strategy.lookup(net, 0, probe_for(advertise_nodes),
                                 target_size=30)
        assert result.found
        assert result.quorum_size == 1  # halted at the origin itself

    def test_lookup_counts_reply_messages(self):
        net = make_net(seed=4)
        # Advertise at a specific remote set.
        strategy = UniquePathStrategy(rng=random.Random(7))
        walk_probe_targets = set(net.alive_nodes()[40:60]) - {0}
        result = strategy.lookup(net, 0, probe_for(walk_probe_targets),
                                 target_size=40)
        if result.found and result.hit_node != 0:
            assert result.reply_delivered
            assert result.messages > result.quorum_size - 1  # walk + reply

    def test_no_early_halting_visits_full_quorum(self):
        net = make_net()
        strategy = UniquePathStrategy(early_halting=False,
                                      rng=random.Random(2))
        result = strategy.lookup(net, 0, probe_for(set(net.alive_nodes())),
                                 target_size=15)
        assert result.found
        assert result.quorum_size == 15

    def test_miss_traverses_full_quorum(self):
        net = make_net()
        strategy = UniquePathStrategy(rng=random.Random(2))
        result = strategy.lookup(net, 0, probe_for([]), target_size=15)
        assert not result.found
        assert result.success
        assert result.quorum_size == 15


class TestFloodingStrategy:
    def test_fixed_ttl_advertise(self):
        net = make_net()
        strategy = FloodingStrategy(ttl=2)
        stored, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=10)
        assert set(stored) == set(result.quorum)
        assert 0 in result.quorum

    def test_analytic_ttl_reaches_target(self):
        net = make_net()
        strategy = FloodingStrategy()
        _, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=20)
        assert result.quorum_size >= 15  # analytic model approximate

    def test_expanding_ring_reaches_target(self):
        net = make_net()
        strategy = FloodingStrategy(expanding_ring=True)
        _, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=20)
        assert result.success

    def test_expanding_ring_costlier_than_direct(self):
        net = make_net()
        _, store = store_recorder()
        direct = FloodingStrategy().advertise(net, 0, store, target_size=20)
        ring = FloodingStrategy(expanding_ring=True).advertise(
            net, 0, store, target_size=20)
        assert ring.messages > direct.messages

    def test_lookup_hit_with_reply(self):
        net = make_net()
        strategy = FloodingStrategy(ttl=2)
        covered_probe = probe_for(set(net.alive_nodes()) - {0})
        result = strategy.lookup(net, 0, covered_probe, target_size=10)
        assert result.found
        assert result.reply_delivered

    def test_lookup_sends_multiple_replies(self):
        net = make_net()
        flood_only = FloodingStrategy(ttl=2).advertise(
            net, 0, lambda v: None, target_size=1)
        hits = set(flood_only.quorum) - {0}
        result = FloodingStrategy(ttl=2).lookup(
            net, 0, probe_for(hits), target_size=1)
        # Every covered hit node replies: messages exceed the flood cost.
        assert result.messages > flood_only.messages


class TestRandomOptStrategy:
    def test_lookup_probes_en_route(self):
        net = make_net()
        strategy = RandomOptStrategy(FullMembership(net), initiations=3)
        result = strategy.lookup(net, 0, probe_for([]), target_size=10)
        # 3 initiations over multi-hop routes probe more than 3 nodes.
        assert result.quorum_size > 3

    def test_lookup_hit_halts_forwarding(self):
        net = make_net()
        strategy = RandomOptStrategy(FullMembership(net), initiations=1)
        everywhere = set(net.alive_nodes()) - {0}
        result = strategy.lookup(net, 0, probe_for(everywhere),
                                 target_size=10)
        assert result.found
        # The hit is at the first en-route hop.
        assert result.quorum_size <= 3

    def test_origin_in_lookup_quorum(self):
        net = make_net()
        strategy = RandomOptStrategy(FullMembership(net), initiations=1)
        result = strategy.lookup(net, 0, probe_for([0]), target_size=10)
        assert result.found and result.hit_node == 0

    def test_advertise_stores_en_route(self):
        net = make_net()
        strategy = RandomOptStrategy(FullMembership(net), initiations=4)
        stored, store = store_recorder()
        result = strategy.advertise(net, 0, store, target_size=8)
        assert result.quorum_size >= 8
        assert set(stored) == set(result.quorum)

    def test_default_initiations_is_ln_n(self):
        net = make_net(n=100)
        strategy = RandomOptStrategy(FullMembership(net))
        assert strategy.default_initiations(net) == round(math.log(100))

    def test_not_uniform_random(self):
        assert not RandomOptStrategy(None).uniform_random
        assert RandomStrategy(None).uniform_random

    def test_advertise_from_a_cut_off_origin_stops(self):
        # With every neighbor of the origin failed no initiation finds a
        # route, so the quorum never fills; the safety stop counts every
        # initiation, routed or not, and ends the advertise.
        net = SimNetwork(NetworkConfig(n=60, seed=3))
        for node in net.true_neighbors(5):
            net.fail_node(node)
        strategy = RandomOptStrategy(RandomMembership(net))
        calls = []
        discover = net.discover_path

        def counted(*args, **kwargs):
            calls.append(args)
            return discover(*args, **kwargs)

        net.discover_path = counted
        stored, store = store_recorder()
        result = strategy.advertise(net, 5, store, 8)
        assert not result.success and result.quorum == [5]
        assert 0 < len(calls) <= strategy.default_initiations(net) + 4 * 8 + 1


class TestDegenerateParameters:
    """A parameter that would make an access silently do nothing (or
    fail only at its first access) is rejected at construction."""

    @pytest.mark.parametrize("make", [
        lambda: RandomStrategy(None, adaptation_retries=-1),
        lambda: RandomOptStrategy(None, initiations=0),
        lambda: RandomOptStrategy(None, initiations=-2),
        lambda: FloodingStrategy(ttl=0),
        lambda: FloodingStrategy(ttl=-1),
    ])
    def test_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_boundaries_accepted(self):
        RandomStrategy(None, adaptation_retries=0)
        RandomOptStrategy(None, initiations=1)
        FloodingStrategy(ttl=1)

    def test_default_initiations_kept(self):
        net = make_net(n=100)
        strategy = RandomOptStrategy(FullMembership(net), initiations=None)
        result = strategy.lookup(net, 0, probe_for([]), target_size=10)
        assert result.success and result.quorum_size > 1
