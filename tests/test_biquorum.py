"""Tests for the probabilistic biquorum system and its sizing planner."""

import math
import random
import warnings

import pytest

from repro.analysis import required_quorum_product
from repro.core import (
    FloodingStrategy,
    PathStrategy,
    ProbabilisticBiquorum,
    RandomStrategy,
    UniquePathStrategy,
    plan_sizes,
)
from repro.membership import FullMembership
from repro.simnet import NetworkConfig, SimNetwork


def make_net(n=100, seed=0):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed))


def mk_random(net):
    return RandomStrategy(FullMembership(net))


class TestPlanSizes:
    def test_symmetric_default(self):
        net = make_net()
        sizing = plan_sizes(800, 0.1, mk_random(net), UniquePathStrategy())
        assert sizing.advertise_size == sizing.lookup_size
        assert sizing.product >= required_quorum_product(800, 0.1) - 1
        assert sizing.guaranteed

    def test_explicit_sizes_kept(self):
        net = make_net()
        sizing = plan_sizes(800, 0.1, mk_random(net), UniquePathStrategy(),
                            advertise_size=56, lookup_size=33)
        assert (sizing.advertise_size, sizing.lookup_size) == (56, 33)

    def test_explicit_sizes_recompute_epsilon(self):
        net = make_net()
        sizing = plan_sizes(800, 0.1, mk_random(net), UniquePathStrategy(),
                            advertise_size=56, lookup_size=33)
        assert sizing.epsilon == pytest.approx(math.exp(-56 * 33 / 800))

    def test_one_fixed_size_derives_other(self):
        net = make_net()
        sizing = plan_sizes(800, 0.1, mk_random(net), UniquePathStrategy(),
                            advertise_size=56)
        assert sizing.advertise_size == 56
        assert sizing.advertise_size * sizing.lookup_size >= \
            required_quorum_product(800, 0.1) - 1

    def test_tau_gives_asymmetric_split(self):
        net = make_net()
        sizing = plan_sizes(800, 0.1, mk_random(net), UniquePathStrategy(),
                            tau=10.0, cost_a=5.0, cost_l=1.0)
        # Lemma 5.6 example: |Ql|/|Qa| = 1/2.
        assert sizing.lookup_size / sizing.advertise_size == pytest.approx(
            0.5, rel=0.15)
        assert sizing.product >= required_quorum_product(800, 0.1) - 2

    def test_non_random_mix_warns_and_uses_crossing_sizes(self):
        with pytest.warns(UserWarning, match="crossing"):
            sizing = plan_sizes(800, 0.1, UniquePathStrategy(),
                                UniquePathStrategy())
        assert not sizing.guaranteed
        assert sizing.advertise_size > 100  # ~1.5 n / ln n

    def test_random_mix_does_not_warn(self):
        net = make_net()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan_sizes(800, 0.1, mk_random(net), FloodingStrategy())

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            plan_sizes(1, 0.1, UniquePathStrategy(), UniquePathStrategy())


class TestBiquorumOperation:
    def test_write_then_read_intersects(self):
        net = make_net()
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=UniquePathStrategy(), epsilon=0.05)
        stored = set()
        bq.write(0, stored.add)
        result = bq.read(50, lambda v: "hit" if v in stored else None)
        assert result.found

    def test_access_results_recorded(self):
        net = make_net()
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=UniquePathStrategy())
        bq.write(0, lambda v: None)
        bq.read(1, lambda v: None)
        assert len(bq.accesses) == 2
        assert bq.accesses[0].kind == "advertise"
        assert bq.accesses[1].kind == "lookup"

    def test_load_tracking(self):
        net = make_net()
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=UniquePathStrategy())
        bq.write(0, lambda v: None)
        assert sum(bq.load.values()) == bq.accesses[0].quorum_size

    def test_load_balance_reasonable_over_many_accesses(self):
        net = make_net()
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=UniquePathStrategy(),
                                   advertise_size=15, lookup_size=15)
        rng = random.Random(0)
        for _ in range(20):
            bq.write(net.random_alive_node(rng), lambda v: None)
        # Uniform-random quorums spread load: no node should dominate.
        values = list(bq.load.values())
        assert max(values) / (sum(values) / len(values)) < 4.0

    def test_empirical_hit_ratio(self):
        net = make_net()
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=UniquePathStrategy(), epsilon=0.1)
        stored = set()
        bq.write(0, stored.add)
        rng = random.Random(1)
        for _ in range(10):
            bq.read(net.random_alive_node(rng),
                    lambda v: "x" if v in stored else None)
        lookups = [r for r in bq.accesses if r.kind == "lookup"]
        assert sum(r.found for r in lookups) / len(lookups) >= 0.6

    def test_resize_tracks_network(self):
        net = make_net()
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=UniquePathStrategy(), epsilon=0.1)
        before = bq.sizing.lookup_size
        for v in range(30, 60):
            net.fail_node(v)
        bq.resize()
        assert bq.sizing.lookup_size < before

    def test_set_sizes_pins_explicitly(self):
        net = make_net()
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=UniquePathStrategy())
        sizing = bq.set_sizes(advertise_size=30, lookup_size=7)
        assert (sizing.advertise_size, sizing.lookup_size) == (30, 7)

    def test_no_adjust_keeps_sizes_fixed(self):
        net = make_net()
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=UniquePathStrategy(),
                                   advertise_size=20, lookup_size=20,
                                   adjust_to_network_size=False)
        for v in range(40, 70):
            net.fail_node(v)
        bq.write(0, lambda v: None)
        assert bq.sizing.lookup_size == 20


class TestMixAndMatchEmpirically:
    """Lemma 5.2: one RANDOM side suffices for the intersection bound."""

    @pytest.mark.parametrize("lookup_factory", [
        lambda net: UniquePathStrategy(),
        lambda net: PathStrategy(),
        lambda net: FloodingStrategy(expanding_ring=True),
    ])
    def test_asymmetric_mixes_intersect(self, lookup_factory):
        net = make_net(seed=7)
        n = net.n_alive
        eps = 0.1
        bq = ProbabilisticBiquorum(net, advertise=mk_random(net),
                                   lookup=lookup_factory(net), epsilon=eps)
        rng = random.Random(2)
        hits = 0
        trials = 15
        for t in range(trials):
            stored = set()
            bq.write(net.random_alive_node(rng), stored.add)
            result = bq.read(net.random_alive_node(rng),
                             lambda v: "x" if v in stored else None)
            hits += bool(result.found)
        # Expect >= (1 - eps) minus sampling noise.
        assert hits / trials >= 0.7
