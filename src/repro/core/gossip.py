"""Gossip-flood quorum access (Section 4.4, second FLOODING variant).

"FLOODING can also be used to implement advertise quorums, by flooding the
whole network and every node deciding to take part in the advertise quorum
with probability |Q|/n."

Because each node joins independently and uniformly, the resulting quorum
*is* a uniform random set — this strategy can serve as the RANDOM side of
the mix-and-match lemma (it is also the scheme of Chockler et al.'s
sensor-network probabilistic quorums discussed in Section 9.1: global
dissemination with a random responder subset).

Cost profile: a full-network flood (n transmissions) per access — robust
and membership-free, but expensive; cheapest when paired with a cheap
strategy on the frequent side of an asymmetric biquorum.
"""

from __future__ import annotations

import random

from repro.core.strategies import AccessResult, AccessStrategy, ProbeFn, StoreFn
from repro.obs.trace import record_event
from repro.randomwalk.reply import send_reply
from repro.simnet.network import SimNetwork


#: A TTL past any network's hop diameter: the flood reaches everyone.
MAX_TTL = 64


class GossipFloodStrategy(AccessStrategy):
    """Whole-network flood with probabilistic quorum membership."""

    name = "GOSSIP-FLOOD"
    uniform_random = True

    def _rng(self, net: SimNetwork) -> random.Random:
        return net.rngs.stream("gossip-strategy")

    def _flood_everywhere(self, net: SimNetwork, origin: int):
        return net.flood(origin, ttl=MAX_TTL)

    def _select_members(self, net: SimNetwork, covered, target_size: int,
                        rng: random.Random):
        """Each covered node joins independently with p = target/|covered|."""
        if not covered:
            return []
        p = min(1.0, target_size / len(covered))
        members = [node for node in covered if rng.random() < p]
        if not members:  # never return an empty quorum
            members = [rng.choice(list(covered))]
        return members

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=target_size)
        outcome = self._flood_everywhere(net, origin)
        result.messages += outcome.messages
        members = self._select_members(net, outcome.covered, target_size,
                                       self._rng(net))
        for node in members:
            store_fn(node)
        result.quorum = sorted(members)
        result.success = len(members) >= 1 and (
            outcome.coverage >= 0.8 * net.n_alive)
        return result

    def _lookup(self, net: SimNetwork, origin: int, probe_fn: ProbeFn,
                target_size: int) -> AccessResult:
        """Flood the query; a uniform random subset of covered nodes probes
        and replies over the reverse flood tree."""
        result = AccessResult(strategy=self.name, kind="lookup",
                              target_size=target_size)
        outcome = self._flood_everywhere(net, origin)
        result.messages += outcome.messages
        members = self._select_members(net, outcome.covered, target_size,
                                       self._rng(net))
        result.quorum = sorted(members)
        delivered_any = False
        for node in members:
            value = probe_fn(node)
            if value is None:
                continue
            result.found = True
            if result.hit_node is None:
                result.hit_node = node
                result.hit_value = value
            if node == origin:
                delivered_any = True
                record_event(net, "reply", src=origin, dst=origin,
                             success=True, mechanism="local")
                continue
            reply = send_reply(net, outcome.reverse_path(node),
                               reduction=True)
            result.messages += reply.messages
            result.routing_messages += reply.routing_messages
            delivered_any = delivered_any or reply.success
        if result.found:
            result.reply_delivered = delivered_any
            result.success = delivered_any
        else:
            result.success = len(members) >= 1
        return result
