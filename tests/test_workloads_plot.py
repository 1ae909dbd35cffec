"""Tests for workload generation, dynamic tau estimation (Section 5.4),
the Zipf-caching interaction (Section 7.1), and ASCII chart rendering."""

import math
import random

import pytest

from repro.analysis import required_quorum_product
from repro.experiments.ascii_plot import render_series
from repro.experiments.workload import (
    TauEstimator,
    ZipfKeySampler,
)


class TestZipfSampler:
    def test_rank_one_most_popular(self):
        sampler = ZipfKeySampler([f"k{i}" for i in range(20)],
                                 exponent=1.2, rng=random.Random(0))
        counts = {}
        for _ in range(3000):
            key = sampler.sample()
            counts[key] = counts.get(key, 0) + 1
        assert counts["k0"] == max(counts.values())

    def test_exponent_zero_is_uniform(self):
        sampler = ZipfKeySampler(["a", "b", "c", "d"], exponent=0.0,
                                 rng=random.Random(1))
        counts = {}
        for _ in range(4000):
            key = sampler.sample()
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) < 1.35 * min(counts.values())

    def test_probability_of_sums_to_one(self):
        sampler = ZipfKeySampler(["a", "b", "c"], exponent=1.0,
                                 rng=random.Random(0))
        total = sum(sampler.probability_of(k) for k in ("a", "b", "c"))
        assert total == pytest.approx(1.0)

    def test_empirical_matches_probability(self):
        sampler = ZipfKeySampler(["a", "b", "c"], exponent=1.0,
                                 rng=random.Random(2))
        hits = sum(sampler.sample() == "a" for _ in range(5000)) / 5000
        assert hits == pytest.approx(sampler.probability_of("a"), abs=0.04)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfKeySampler([], rng=random.Random(0))
        with pytest.raises(ValueError):
            ZipfKeySampler(["a"], exponent=-1.0, rng=random.Random(0))


class TestTauEstimator:
    def test_estimates_ratio(self):
        est = TauEstimator(window=128)
        for _ in range(10):
            est.record_advertise()
            for _ in range(10):
                est.record_lookup()
        assert est.tau() == pytest.approx(10.0, rel=0.2)

    def test_window_adapts_to_drift(self):
        est = TauEstimator(window=64)
        for _ in range(64):
            est.record_lookup()
        assert est.tau() > 10
        for _ in range(32):
            est.record_advertise()
        assert est.tau() < 2.5  # old lookups aged out of the window

    def test_prior_bridges_empty_window(self):
        est = TauEstimator(prior_tau=5.0)
        assert est.tau() == pytest.approx(5.0)

    def test_recommendation_meets_corollary(self):
        est = TauEstimator()
        for _ in range(5):
            est.record_advertise()
        for _ in range(50):
            est.record_lookup()
        # The paper's Section 5.4 example: Cost_a = D = 5, Cost_l = 1;
        # tau ~ 10 gives |Ql|/|Qa| ~ 1/2.
        rec = est.recommend_sizes(n=800, epsilon=0.1, cost_a=5.0,
                                  cost_l=1.0)
        assert (rec.advertise_size * rec.lookup_size
                >= required_quorum_product(800, 0.1) - 2)
        # Lookup-heavy with cheap lookups: lookup quorum strictly smaller.
        assert rec.lookup_size < rec.advertise_size

    def test_validation(self):
        with pytest.raises(ValueError):
            TauEstimator(window=1)
        with pytest.raises(ValueError):
            TauEstimator(prior_tau=0.0)


class TestZipfCachingInteraction:
    def test_caching_pays_off_for_popular_keys(self):
        """Section 7.1: popular items terminate much faster with caching."""
        from repro.core import (ProbabilisticBiquorum, RandomStrategy,
                                UniquePathStrategy)
        from repro.membership import FullMembership
        from repro.services import LocationService
        from repro.simnet import NetworkConfig, SimNetwork

        def run(enable_caching):
            net = SimNetwork(NetworkConfig(n=100, avg_degree=10, seed=6))
            bq = ProbabilisticBiquorum(
                net, advertise=RandomStrategy(FullMembership(net)),
                lookup=UniquePathStrategy(), epsilon=0.1)
            svc = LocationService(bq, enable_caching=enable_caching)
            keys = [f"k{i}" for i in range(6)]
            rng = random.Random(7)
            for key in keys:
                svc.advertise(net.random_alive_node(rng), key, key)
            sampler = ZipfKeySampler(keys, exponent=1.4,
                                     rng=random.Random(8))
            lookers = rng.sample(net.alive_nodes(), 5)  # small looker pool
            messages = 0
            for _ in range(60):
                receipt = svc.lookup(rng.choice(lookers), sampler.sample())
                messages += receipt.messages
            return messages

        assert run(True) < run(False)


class TestAsciiPlot:
    def test_renders_axes_and_legend(self):
        out = render_series({"hit": [(0, 0.5), (1, 0.9)]},
                            x_label="size", y_label="ratio")
        assert "h" in out
        assert "size vs ratio" in out
        assert "= hit" in out

    def test_multiple_series_distinct_markers(self):
        out = render_series({"alpha": [(0, 1)], "beta": [(1, 2)]})
        assert "= alpha" in out and "= beta" in out

    def test_empty_series(self):
        assert render_series({}) == "(no data)"

    def test_single_point_no_crash(self):
        out = render_series({"s": [(5.0, 5.0)]})
        assert "s" in out

    def test_extremes_on_canvas(self):
        out = render_series({"d": [(0, 0), (10, 10)]}, width=20, height=5)
        lines = out.splitlines()
        assert "d" in lines[0]              # max lands on the top row
        assert "d" in lines[4]              # min on the bottom row
