"""Tests for running quorum strategies over the packet-level stack."""

import random

import pytest

from repro.core import (
    FloodingStrategy,
    ProbabilisticBiquorum,
    RandomOptStrategy,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.phy import TwoRayGround
from repro.services import LocationService
from repro.stack import AdhocStack, PacketQuorumNetwork, StackConfig


class _OracleMembership:
    """Full-membership oracle over any quorum network facade."""

    def __init__(self, net):
        self.net = net

    def sample_for(self, node_id, k, rng):
        pool = [v for v in self.net.alive_nodes() if v != node_id]
        return rng.sample(pool, min(k, len(pool)))


@pytest.fixture(scope="module")
def packet_net():
    stack = AdhocStack(StackConfig(n=25, avg_degree=10, seed=9))
    net = PacketQuorumNetwork(stack)
    net.advance(11.0)  # one HELLO round populates neighbor tables
    return net


class TestAdapterPrimitives:
    def test_hello_beacons_populate_tables(self, packet_net):
        known = set(packet_net.known_neighbors(0))
        true = set(packet_net.true_neighbors(0))
        assert known, "no HELLOs received"
        assert known <= true | known  # sanity
        # In a static network the beacon table converges to ground truth.
        assert len(known & true) >= max(1, len(true) - 2)

    def test_one_hop_unicast_to_neighbor(self, packet_net):
        v = packet_net.true_neighbors(0)[0]
        assert packet_net.one_hop_unicast(0, v)

    def test_one_hop_unicast_failure_notification(self, packet_net):
        far = max(packet_net.alive_nodes(),
                  key=lambda u: packet_net.stack.env.distance(
                      packet_net.position(0), packet_net.position(u)))
        if not packet_net.in_range(0, far):
            assert not packet_net.one_hop_unicast(0, far)

    def test_route_with_probe_ack(self, packet_net):
        result = packet_net.route(0, 20)
        assert result.success
        assert result.data_messages >= 1

    def test_route_counts_aodv_control(self, packet_net):
        # A route to a fresh destination costs discovery frames.
        result = packet_net.route(3, 17)
        assert result.success
        assert result.routing_messages >= 0

    def test_flood_covers_neighborhood(self, packet_net):
        outcome = packet_net.flood(5, ttl=2)
        assert outcome.coverage >= len(packet_net.true_neighbors(5))
        assert outcome.covered[5] == 0
        # Reverse paths reach the origin.
        node = max(outcome.covered, key=outcome.covered.get)
        path = outcome.reverse_path(node)
        assert path[-1] == 5

    def test_discover_path_unsupported(self, packet_net):
        with pytest.raises(NotImplementedError):
            packet_net.discover_path(0, 5)


class TestStrategiesOverPackets:
    def test_random_advertise(self, packet_net):
        strategy = RandomStrategy(_OracleMembership(packet_net),
                                  rng=random.Random(1))
        stored = set()
        result = strategy.advertise(packet_net, 0, stored.add, target_size=8)
        assert result.success
        assert result.quorum_size == 8
        assert result.routing_messages > 0  # real AODV discovery happened

    def test_unique_path_lookup_with_reply(self, packet_net):
        adv = RandomStrategy(_OracleMembership(packet_net),
                             rng=random.Random(2))
        stored = set()
        adv.advertise(packet_net, 0, stored.add, target_size=10)
        lookup = UniquePathStrategy(rng=random.Random(3))
        result = lookup.lookup(
            packet_net, 12, lambda v: "x" if v in stored else None,
            target_size=8)
        if result.found:
            assert result.reply_delivered
        else:
            assert result.quorum_size >= 6

    def test_flooding_lookup(self, packet_net):
        adv = RandomStrategy(_OracleMembership(packet_net),
                             rng=random.Random(4))
        stored = set()
        adv.advertise(packet_net, 1, stored.add, target_size=10)
        result = FloodingStrategy(ttl=3).lookup(
            packet_net, 12, lambda v: "x" if v in stored else None,
            target_size=10)
        assert result.found

    def test_random_opt_reports_missing_hop_visibility(self, packet_net):
        # The packet facade carries no access engine and cannot expose
        # routes hop by hop: RANDOM-OPT advertise and lookup must reach
        # the adapter's typed diagnosis, not die on a missing attribute.
        strategy = RandomOptStrategy(_OracleMembership(packet_net),
                                     rng=random.Random(8))
        with pytest.raises(NotImplementedError, match="RANDOM-OPT"):
            strategy.advertise(packet_net, 0, set().add, target_size=6)
        with pytest.raises(NotImplementedError, match="RANDOM-OPT"):
            strategy.lookup(packet_net, 12, lambda v: None, target_size=6)

    def test_full_location_service_pipeline(self):
        stack = AdhocStack(StackConfig(n=20, avg_degree=10, seed=13))
        net = PacketQuorumNetwork(stack)
        net.advance(11.0)
        bq = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(_OracleMembership(net),
                                          rng=random.Random(5)),
            lookup=UniquePathStrategy(rng=random.Random(6)),
            epsilon=0.1)
        svc = LocationService(bq)
        svc.advertise(0, "sensor", "reading-42")
        rng = random.Random(7)
        hits = sum(svc.lookup(net.random_alive_node(rng), "sensor").found
                   for _ in range(6))
        # Tiny 20-node net: quorums of ~8 intersect essentially always.
        assert hits >= 4


class TestPacketPassWork:
    """Noise-free work counts of one packet-level pass on a static
    50-node stack, shaped like ``bench/``'s ``packet_stack``: 4 RANDOM
    advertises of 14 and 40 UNIQUE-PATH lookups of 8."""

    def test_static_pass_resolves_frames_from_cached_rows(self, monkeypatch):
        stack = AdhocStack(StackConfig(n=50, avg_degree=10, seed=0))
        env, channel = stack.env, stack.channel
        rows_built = []
        link_row = channel._link_row

        def counted_link_row(ids, distances, power_mw):
            rows_built.append(len(ids))
            return link_row(ids, distances, power_mw)

        channel._link_row = counted_link_row
        net = PacketQuorumNetwork(stack)
        net.advance(11.0)  # the HELLO round: every node has sent a frame
        assert len(rows_built) == 50
        version = env.snapshot().version
        events, frames = stack.sim.events_executed, channel.frames_sent

        in_receive, geometry_in_receive = [False], []
        receive = channel._receive

        def watched_receive(tx, interferers):
            in_receive[0] = True
            try:
                receive(tx, interferers)
            finally:
                in_receive[0] = False

        def watched(name, fn):
            def call(*args):
                if in_receive[0]:
                    geometry_in_receive.append(name)
                return fn(*args)
            return call

        channel._receive = watched_receive
        env.position_of = watched("position_of", env.position_of)
        env.distance = watched("distance", env.distance)
        monkeypatch.setattr(
            TwoRayGround, "received_power_mw",
            watched("received_power_mw", TwoRayGround.received_power_mw))

        rng = random.Random(2)
        advertise = RandomStrategy(_OracleMembership(net),
                                   rng=random.Random(0))
        lookup = UniquePathStrategy(rng=random.Random(1))
        stores = []
        for _ in range(4):
            holders = set()
            stores.append(holders)
            advertise.advertise(net, net.random_alive_node(rng), holders.add,
                                target_size=14)
        hits = 0
        for _ in range(40):
            holders = stores[rng.randrange(4)]
            hits += lookup.lookup(
                net, net.random_alive_node(rng),
                lambda v, holders=holders: "x" if v in holders else None,
                target_size=8).found

        assert len(rows_built) == 50       # no new row after warm-up
        assert env.snapshot().version == version  # no new snapshot
        assert geometry_in_receive == []
        assert stack.sim.events_executed - events == 6317
        assert channel.frames_sent - frames == 2489
        assert hits == 38
