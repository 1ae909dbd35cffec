"""Tests for the CSMA/CA MAC layer over the SINR channel."""

import random

import pytest
from reference.phy import fixed_env

from repro.mac import BROADCAST, MacLayer, MacParams
from repro.phy import PhyParams, SINRChannel
from repro.sim import Simulator


def build(positions):
    sim = Simulator()
    env = fixed_env(sim, positions)
    channel = SINRChannel(sim, env)
    inboxes = {nid: [] for nid in positions}
    macs = {}
    for nid in positions:
        macs[nid] = MacLayer(
            sim, channel, nid,
            deliver=lambda payload, src, box=inboxes[nid]: box.append((payload, src)),
            rng=random.Random(nid + 1))
    return sim, env, channel, macs, inboxes


class TestUnicast:
    def test_delivery_and_success_callback(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        outcome = []
        macs[0].send_unicast(1, "ping", on_success=lambda: outcome.append("ok"),
                             on_failure=lambda: outcome.append("fail"))
        sim.run(until=1.0)
        assert inboxes[1] == [("ping", 0)]
        assert outcome == ["ok"]

    def test_failure_notification_when_peer_gone(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        env.remove_node(1)
        outcome = []
        macs[0].send_unicast(1, "ping", on_failure=lambda: outcome.append("fail"))
        sim.run(until=2.0)
        assert outcome == ["fail"]
        assert inboxes[1] == []
        assert macs[0].failures == 1

    def test_retry_count_grows_on_failure(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        env.remove_node(1)
        macs[0].send_unicast(1, "ping")
        sim.run(until=2.0)
        assert macs[0].retries == MacParams().retry_limit

    def test_queue_serialises_frames(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        for i in range(5):
            macs[0].send_unicast(1, f"m{i}")
        sim.run(until=2.0)
        assert [p for p, _ in inboxes[1]] == [f"m{i}" for i in range(5)]

    def test_unicast_to_self_rejected(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0)})
        with pytest.raises(ValueError):
            macs[0].send_unicast(0, "x")

    def test_out_of_range_peer_fails(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (1000, 0)})
        outcome = []
        macs[0].send_unicast(1, "ping", on_failure=lambda: outcome.append("f"))
        sim.run(until=2.0)
        assert outcome == ["f"]

    def test_third_party_does_not_deliver_unicast(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0),
                                             2: (50, 50)})
        macs[0].send_unicast(1, "private")
        sim.run(until=1.0)
        assert inboxes[2] == []


class TestBroadcast:
    def test_reaches_all_in_range(self):
        sim, env, ch, macs, inboxes = build(
            {0: (0, 0), 1: (100, 0), 2: (0, 100), 3: (600, 600)})
        macs[0].send_broadcast("hello")
        sim.run(until=1.0)
        assert inboxes[1] == [("hello", 0)]
        assert inboxes[2] == [("hello", 0)]
        assert inboxes[3] == []

    def test_no_ack_for_broadcast(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        macs[0].send_broadcast("hello")
        sim.run(until=1.0)
        assert macs[1].acks_sent == 0

    def test_duplicate_suppression(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        macs[0].send_unicast(1, "once")
        sim.run(until=1.0)
        assert len(inboxes[1]) == 1


class TestPromiscuous:
    def test_overhears_neighbor_unicast(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0),
                                             2: (50, 50)})
        heard = []
        macs[2].promiscuous = True
        macs[2].on_overhear = lambda payload, src, dst: heard.append(
            (payload, src, dst))
        macs[0].send_unicast(1, "secret")
        sim.run(until=1.0)
        assert ("secret", 0, 1) in heard

    def test_not_promiscuous_by_default(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0),
                                             2: (50, 50)})
        heard = []
        macs[2].on_overhear = lambda *a: heard.append(a)
        macs[0].send_unicast(1, "secret")
        sim.run(until=1.0)
        assert heard == []


class TestShutdown:
    def test_shutdown_stops_rx_and_tx(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        macs[1].shutdown()
        macs[0].send_unicast(1, "ping", on_failure=lambda: None)
        sim.run(until=2.0)
        assert inboxes[1] == []

    def test_shutdown_drops_queue(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        macs[0].send_unicast(1, "a")
        macs[0].shutdown()
        sim.run(until=2.0)
        assert inboxes[1] == []


class TestContention:
    def test_many_senders_all_deliver_eventually(self):
        positions = {i: (i * 30.0, 0.0) for i in range(6)}
        sim, env, ch, macs, inboxes = build(positions)
        for i in range(1, 6):
            macs[i].send_unicast(0, f"from-{i}")
        sim.run(until=5.0)
        got = sorted(p for p, _ in inboxes[0])
        assert got == [f"from-{i}" for i in range(1, 6)]

    def test_mac_counters(self):
        sim, env, ch, macs, inboxes = build({0: (0, 0), 1: (100, 0)})
        macs[0].send_unicast(1, "x")
        sim.run(until=1.0)
        assert macs[0].data_sent >= 1
        assert macs[1].acks_sent == 1
        assert macs[1].delivered_up == 1
