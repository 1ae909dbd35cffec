"""Unit tests for the network-layer pieces not covered end-to-end:
flooding agent dedup/TTL mechanics, packet id allocation, stack node
dispatch including the raw-payload hook."""

import random

import pytest
from reference.phy import fixed_env

from repro.mac import MacLayer, MacParams
from repro.net import FloodPacket, next_packet_id
from repro.net.flooding import FloodingAgent
from repro.phy import SINRChannel
from repro.sim import Simulator
from repro.stack import AdhocStack, StackConfig


def build_flooders(positions):
    sim = Simulator()
    env = fixed_env(sim, positions)
    channel = SINRChannel(sim, env)
    delivered = {nid: [] for nid in positions}
    agents = {}
    for nid in positions:
        mac = MacLayer(sim, channel, nid,
                       deliver=lambda p, s, n=nid: agents[n].on_payload(p, s),
                       rng=random.Random(nid))
        agents[nid] = FloodingAgent(
            sim, mac, nid,
            deliver=lambda payload, pkt, n=nid: delivered[n].append(payload),
            rng=random.Random(nid + 100))
    return sim, env, agents, delivered


class TestPacketIds:
    def test_ids_unique_and_increasing(self):
        a, b, c = next_packet_id(), next_packet_id(), next_packet_id()
        assert a < b < c


class TestFloodingAgent:
    # A line of nodes 150m apart: node i only hears i-1 and i+1.
    LINE = {i: (i * 150.0, 0.0) for i in range(5)}

    def test_originator_delivers_locally(self):
        sim, env, agents, delivered = build_flooders(self.LINE)
        agents[0].originate("hi", ttl=1)
        sim.run(until=1.0)
        assert "hi" in delivered[0]

    def test_ttl_limits_propagation_on_line(self):
        sim, env, agents, delivered = build_flooders(self.LINE)
        agents[0].originate("hop2", ttl=2)
        sim.run(until=3.0)
        assert "hop2" in delivered[1]
        assert "hop2" in delivered[2]
        assert "hop2" not in delivered[3]

    def test_full_ttl_floods_line(self):
        sim, env, agents, delivered = build_flooders(self.LINE)
        agents[0].originate("all", ttl=10)
        sim.run(until=5.0)
        assert all("all" in delivered[i] for i in self.LINE)

    def test_duplicate_suppression_single_delivery(self):
        # Triangle: everyone hears everyone; each must deliver once.
        tri = {0: (0, 0), 1: (100, 0), 2: (50, 80)}
        sim, env, agents, delivered = build_flooders(tri)
        agents[0].originate("once", ttl=3)
        sim.run(until=3.0)
        for nid in tri:
            assert delivered[nid].count("once") == 1

    def test_rebroadcast_counting(self):
        sim, env, agents, delivered = build_flooders(self.LINE)
        agents[0].originate("x", ttl=10)
        sim.run(until=5.0)
        rebroadcasts = sum(a.rebroadcasts for a in agents.values())
        # Nodes 1..3 rebroadcast (node 4 receives with ttl exhausted or
        # rebroadcasts into emptiness); originator counts separately.
        assert rebroadcasts >= 3

    def test_invalid_ttl(self):
        sim, env, agents, delivered = build_flooders(self.LINE)
        with pytest.raises(ValueError):
            agents[0].originate("bad", ttl=0)

    def test_non_flood_payload_ignored(self):
        sim, env, agents, delivered = build_flooders(self.LINE)
        agents[0].on_payload("not-a-flood-packet", 1)  # must not raise
        assert delivered[0] == []


class TestStackNodeDispatch:
    def test_raw_handler_receives_unknown_payloads(self):
        stack = AdhocStack(StackConfig(n=6, avg_degree=10, seed=3))
        got = []
        for node in stack.nodes.values():
            node.raw_handler = lambda p, f, n=node.node_id: got.append(
                (n, p, f))
        stack.run(0.2)
        stack.nodes[0].mac.send_broadcast("hello-raw")
        stack.run(1.0)
        receivers = {n for n, p, f in got if p == "hello-raw"}
        assert receivers  # neighbors got the raw payload

    def test_raw_handler_not_called_for_routed_data(self):
        stack = AdhocStack(StackConfig(n=8, avg_degree=10, seed=4))
        raw = []
        for node in stack.nodes.values():
            node.raw_handler = lambda p, f: raw.append(p)
        stack.run(0.3)
        stack.send(0, 5, "routed")
        stack.run(4.0)
        assert "routed" not in raw
        assert ("routed", 0) in stack.delivered_to(5)

    def test_crashed_node_stops_dispatching(self):
        stack = AdhocStack(StackConfig(n=6, avg_degree=10, seed=5))
        got = []
        victim = 3
        stack.nodes[victim].raw_handler = lambda p, f: got.append(p)
        stack.crash(victim)
        stack.run(0.2)
        stack.nodes[0].mac.send_broadcast("after-crash")
        stack.run(1.0)
        assert got == []
