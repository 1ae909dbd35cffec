"""Tests for the services layer: location service, register, refresh
daemon."""

import math
import random

import pytest

from repro.core import ProbabilisticBiquorum, RandomStrategy, UniquePathStrategy
from repro.membership import FullMembership
from repro.services import (
    LocationService,
    ProbabilisticRegister,
    RefreshDaemon,
    Timestamp,
    ZERO_TS,
)
from repro.simnet import NetworkConfig, SimNetwork, apply_churn


def build(n=100, seed=0, epsilon=0.05, lookup=None, **bq_kw):
    net = SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed))
    membership = FullMembership(net)
    bq = ProbabilisticBiquorum(
        net, advertise=RandomStrategy(membership),
        lookup=lookup or UniquePathStrategy(),
        epsilon=epsilon, **bq_kw)
    return net, bq


class TestLocationService:
    def test_advertise_then_lookup(self):
        net, bq = build()
        svc = LocationService(bq)
        svc.advertise(0, "printer", (3, 4))
        receipt = svc.lookup(50, "printer")
        assert receipt.found
        assert receipt.value == (3, 4)

    def test_lookup_unknown_key_misses(self):
        net, bq = build()
        svc = LocationService(bq)
        receipt = svc.lookup(10, "nothing")
        assert not receipt.found
        assert receipt.value is None

    def test_owner_lookup_is_free(self):
        net, bq = build()
        svc = LocationService(bq)
        ad = svc.advertise(0, "k", "v")
        owner = ad.quorum[0]
        receipt = svc.lookup(owner, "k")
        assert receipt.found and receipt.messages == 0

    def test_versions_increase(self):
        net, bq = build()
        svc = LocationService(bq)
        v1 = svc.advertise(0, "k", "old").version
        v2 = svc.advertise(0, "k", "new").version
        assert v2 > v1

    def test_newer_version_wins_at_owner(self):
        net, bq = build()
        svc = LocationService(bq)
        svc.advertise(0, "k", "old")
        svc.advertise(0, "k", "new")
        for owner in svc.owners_of("k"):
            entry = svc.owner_lookup(owner, "k")
            if entry is not None and entry.value == "new":
                break
        else:
            pytest.fail("no owner stores the new value")

    def test_owners_of_excludes_dead(self):
        net, bq = build()
        svc = LocationService(bq)
        ad = svc.advertise(0, "k", "v")
        victim = ad.quorum[0]
        net.fail_node(victim)
        assert victim not in svc.owners_of("k")

    def test_caching_at_originator(self):
        net, bq = build()
        svc = LocationService(bq, enable_caching=True)
        svc.advertise(0, "k", "v")
        first = svc.lookup(50, "k")
        assert first.found
        second = svc.lookup(50, "k")
        assert second.found and second.from_cache
        assert second.messages == 0

    def test_cache_disabled_by_default(self):
        net, bq = build()
        svc = LocationService(bq)
        svc.advertise(0, "k", "v")
        svc.lookup(50, "k")
        second = svc.lookup(50, "k")
        assert not second.from_cache or second.access is None

    def test_cache_eviction_bounded(self):
        net, bq = build()
        svc = LocationService(bq, enable_caching=True, cache_capacity=2)
        for i in range(5):
            svc.cache_at(7, f"k{i}", i, i)
        assert svc.cache_lookup(7, "k0") is None
        assert svc.cache_lookup(7, "k4") is not None

    def test_evict_bystander_keeps_owned(self):
        net, bq = build()
        svc = LocationService(bq, enable_caching=True)
        ad = svc.advertise(0, "k", "v")
        owner = ad.quorum[0]
        svc.cache_at(owner, "other", 1, 1)
        svc.evict_bystander_state(owner)
        assert svc.cache_lookup(owner, "other") is None
        assert svc.owner_lookup(owner, "k") is not None

    def test_readvertise_restores_after_churn(self):
        net, bq = build(seed=3)
        svc = LocationService(bq)
        svc.advertise(0, "k", "v")
        apply_churn(net, fail_fraction=0.4, rng=random.Random(0),
                    keep_connected=True, protected={0})
        bq.advertise_strategy.membership.refresh()
        receipt = svc.readvertise("k")
        assert receipt is not None
        assert len(svc.owners_of("k")) >= receipt.access.quorum_size

    def test_readvertise_unknown_key(self):
        net, bq = build()
        svc = LocationService(bq)
        assert svc.readvertise("ghost") is None

    def test_readvertise_all(self):
        net, bq = build()
        svc = LocationService(bq)
        for i in range(3):
            svc.advertise(i, f"k{i}", i)
        receipts = svc.readvertise_all()
        assert len(receipts) == 3

    def test_readvertise_falls_back_to_surviving_owner(self):
        net, bq = build(seed=4)
        svc = LocationService(bq)
        svc.advertise(0, "k", "v")
        net.fail_node(0)
        receipt = svc.readvertise("k")
        assert receipt is not None


class TestRegister:
    def make_register(self, seed=0):
        net, bq = build(seed=seed,
                        lookup=UniquePathStrategy(early_halting=False))
        return net, ProbabilisticRegister(bq)

    def test_read_empty_returns_zero_ts(self):
        net, reg = self.make_register()
        result = reg.read(0)
        assert result.timestamp == ZERO_TS
        assert result.value is None

    def test_write_then_read(self):
        net, reg = self.make_register()
        reg.write(0, "hello")
        result = reg.read(50)
        assert result.value == "hello"

    def test_writes_monotone_timestamps(self):
        net, reg = self.make_register()
        t1 = reg.write(0, "a").timestamp
        t2 = reg.write(1, "b").timestamp
        assert t1 < t2

    def test_last_write_wins(self):
        net, reg = self.make_register()
        reg.write(0, "first")
        reg.write(1, "second")
        assert reg.read(70).value == "second"

    def test_read_repair_propagates(self):
        net, reg = self.make_register()
        reg.write(0, "x")
        before = len(reg.replicas_at(Timestamp(1, 0)))
        reg.read(50)
        after = len(reg.replicas_at(Timestamp(1, 0)))
        assert after >= before

    def test_concurrent_writers_ordered_by_id(self):
        a = Timestamp(3, 1)
        b = Timestamp(3, 2)
        assert a < b

    def test_message_accounting(self):
        net, reg = self.make_register()
        result = reg.write(0, "x")
        assert result.messages > 0
        assert len(result.phases) == 2

    def test_survives_partial_failures(self):
        net, reg = self.make_register(seed=5)
        reg.write(0, "durable")
        # Fail a third of the network (keeping the reader alive).
        victims = [v for v in net.alive_nodes() if v not in (0, 50)][:30]
        for v in victims:
            net.fail_node(v)
        reg.biquorum.advertise_strategy.membership.refresh()
        reg.biquorum.resize()
        assert reg.read(50).value == "durable"


class TestRefreshDaemon:
    def test_periodic_refresh_runs(self):
        net, bq = build()
        svc = LocationService(bq)
        svc.advertise(0, "k", "v")
        daemon = RefreshDaemon(svc, interval=10.0)
        net.advance(25.0)
        assert daemon.stats.rounds == 2
        assert daemon.stats.readvertised == 2
        daemon.stop()

    def test_interval_from_degradation_analysis(self):
        net, bq = build()
        svc = LocationService(bq)
        daemon = RefreshDaemon(svc, epsilon=0.05, min_intersection=0.9,
                               churn_fraction_per_second=0.001)
        assert daemon.plan is not None
        assert daemon.interval == pytest.approx(
            daemon.plan.tolerable_churn_fraction / 0.001)
        daemon.stop()

    def test_refresh_now(self):
        net, bq = build()
        svc = LocationService(bq)
        svc.advertise(0, "k", "v")
        daemon = RefreshDaemon(svc, interval=1000.0)
        assert daemon.refresh_now() == 1
        daemon.stop()

    def test_missing_parameters_rejected(self):
        net, bq = build()
        svc = LocationService(bq)
        with pytest.raises(ValueError):
            RefreshDaemon(svc)

    def test_refresh_keeps_data_alive_under_churn(self):
        net, bq = build(seed=6)
        svc = LocationService(bq)
        svc.advertise(0, "k", "v")
        daemon = RefreshDaemon(svc, interval=5.0)
        rng = random.Random(0)
        for _ in range(4):
            apply_churn(net, fail_fraction=0.1, rng=rng,
                        keep_connected=True, protected={0})
            bq.advertise_strategy.membership.refresh()
            net.advance(5.5)
        receipt = svc.lookup(net.random_alive_node(rng), "k")
        assert receipt.found
        daemon.stop()

    def test_lost_never_negative_when_keys_advertised_mid_round(self):
        # Regression: a key advertised between the round's key snapshot
        # and readvertise_all used to push the lost count negative.
        net, bq = build()
        svc = LocationService(bq)
        svc.advertise(0, "a", "v")
        daemon = RefreshDaemon(svc, interval=1000.0)
        original = svc.readvertise_all

        def advertise_then_refresh():
            svc.advertise(1, "b", "w")
            return original()

        svc.readvertise_all = advertise_then_refresh
        daemon.refresh_now()
        assert daemon.stats.lost == 0
        assert daemon.stats.readvertised == 2
        daemon.stop()

    def test_stuck_key_counted_lost_once_until_recovery(self):
        # Regression: back-to-back rounds re-counted the same dead key.
        net, bq = build()
        svc = LocationService(bq)
        receipt = svc.advertise(0, "k", "v")
        daemon = RefreshDaemon(svc, interval=1000.0)
        for node in {0, *receipt.quorum}:
            net.fail_node(node)
        assert daemon.refresh_now() == 0
        assert daemon.stats.lost == 1
        daemon.refresh_now()
        assert daemon.stats.lost == 1
        daemon.stop()

    def test_adaptive_rederives_interval_from_observed_churn(self):
        net, bq = build(seed=6)
        svc = LocationService(bq)
        svc.advertise(0, "k", "v")
        daemon = RefreshDaemon(svc, interval=30.0, epsilon=0.05,
                               min_intersection=0.9, adaptive=True,
                               min_interval=5.0, max_interval=500.0)
        apply_churn(net, fail_fraction=0.1, rng=random.Random(1),
                    keep_connected=True, protected={0})
        net.advance(31.0)
        assert daemon.stats.rounds == 1
        assert daemon.stats.interval_updates >= 1
        assert daemon.interval != 30.0
        assert 5.0 <= daemon.interval <= 500.0
        daemon.stop()

    def test_adaptive_without_churn_keeps_interval(self):
        net, bq = build()
        svc = LocationService(bq)
        daemon = RefreshDaemon(svc, interval=10.0, epsilon=0.05,
                               min_intersection=0.9, adaptive=True)
        net.advance(11.0)
        assert daemon.stats.rounds == 1
        assert daemon.stats.interval_updates == 0
        assert daemon.interval == 10.0
        daemon.stop()

    def test_adaptive_missing_parameters_rejected(self):
        net, bq = build()
        svc = LocationService(bq)
        with pytest.raises(ValueError):
            RefreshDaemon(svc, interval=10.0, adaptive=True)
