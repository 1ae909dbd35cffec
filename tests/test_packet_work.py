"""Work-vector count gate for the packet floor (exact counts, no clock).

One seeded pass over a small packet-level stack — RANDOM advertises
(routed sends, so AODV discoveries), UNIQUE-PATH lookups (acked MAC
unicasts) and one TTL flood — pinned by what it did:

* ``sim.events_executed``: every event the kernel ran;
* the channel's four frame counters (sent, delivered, lost to
  collision, too weak);
* AODV control transmissions (RREQ + RREP + RERR) and data
  transmissions (originations + forwards), summed node by node — and
  the stack's running totals must equal those sums;
* the :class:`~repro.core.strategies.AccessResult` totals: accesses,
  successes, hits, quorum members, messages, routing messages.

Per-frame speed work on the PHY, MAC, AODV and kernel must keep every
event, draw and float operation in order, so none of these may move.
The counts repeat exactly on one commit; a change that moves one must
say so.
"""

import random

import pytest

from repro.core import FloodingStrategy, RandomStrategy, UniquePathStrategy
from repro.stack import AdhocStack, PacketQuorumNetwork, StackConfig


class _OracleMembership:
    def __init__(self, net):
        self.net = net

    def sample_for(self, node_id, k, rng):
        pool = [v for v in self.net.alive_nodes() if v != node_id]
        return rng.sample(pool, min(k, len(pool)))


def packet_pass(config, crash=None):
    """Run the pass; returns ``(stack, vector)``."""
    stack = AdhocStack(config)
    net = PacketQuorumNetwork(stack)
    net.advance(11.0)  # one HELLO round populates the neighbor tables
    if crash is not None:
        net.fail_node(crash)
    rng = random.Random(config.seed + 2)
    advertise = RandomStrategy(_OracleMembership(net),
                               rng=random.Random(config.seed))
    lookup = UniquePathStrategy(rng=random.Random(config.seed + 1))
    results, stores = [], []
    for _ in range(3):
        holders = set()
        stores.append(holders)
        results.append(advertise.advertise(
            net, net.random_alive_node(rng), holders.add, target_size=10))
    for _ in range(12):
        holders = stores[rng.randrange(len(stores))]
        results.append(lookup.lookup(
            net, net.random_alive_node(rng),
            lambda v, holders=holders: "x" if v in holders else None,
            target_size=6))
    results.append(FloodingStrategy().lookup(
        net, net.random_alive_node(rng),
        lambda v: "x" if v in stores[0] else None, target_size=5))

    nodes = stack.nodes.values()
    channel = stack.channel
    vector = {
        "events": stack.sim.events_executed,
        "channel": (channel.frames_sent, channel.frames_delivered,
                    channel.frames_lost_collision, channel.frames_lost_weak),
        "aodv_control": sum(node.aodv.rreq_sent + node.aodv.rrep_sent
                            + node.aodv.rerr_sent for node in nodes),
        "aodv_data": sum(node.aodv.data_originated + node.aodv.data_forwarded
                         for node in nodes),
        "access": (len(results),
                   sum(r.success for r in results),
                   sum(r.found for r in results),
                   sum(len(r.quorum) for r in results),
                   sum(r.messages for r in results),
                   sum(r.routing_messages for r in results)),
    }
    return stack, vector


CASES = {
    "static-sinr": (
        StackConfig(n=30, avg_degree=10, seed=4), None,
        {"events": 2944, "channel": (1191, 8441, 491, 18890),
         "aodv_control": 621, "aodv_data": 154,
         "access": (16, 16, 11, 69, 184, 621)}),
    "waypoint-sinr-crash": (
        StackConfig(n=30, avg_degree=10, seed=5, mobility="waypoint",
                    max_speed=10.0, pause_time=0.0), 3,
        {"events": 3063, "channel": (1118, 10779, 604, 18662),
         "aodv_control": 560, "aodv_data": 117,
         "access": (16, 13, 12, 86, 166, 560)}),
    "static-protocol": (
        StackConfig(n=30, avg_degree=10, seed=6, channel="protocol"), None,
        {"events": 2593, "channel": (1127, 7243, 524, 0),
         "aodv_control": 593, "aodv_data": 138,
         "access": (16, 16, 13, 68, 172, 593)}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_packet_pass_work_vector(case):
    config, crash, expected = CASES[case]
    stack, vector = packet_pass(config, crash)
    assert vector == expected
    # The adapter meters routed sends from these running totals.
    assert stack.total_control_messages() == vector["aodv_control"]
    assert stack.aodv_totals.data == vector["aodv_data"]
