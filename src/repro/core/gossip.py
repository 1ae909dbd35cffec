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

Only the law lives here — a TTL past the diameter
(:data:`~repro.core.strategies.MAX_TTL`), the independent |Q|/|covered|
member draw and the success rule; a lookup's probes and reverse-tree
replies are FLOODING's, :func:`~repro.core.strategies.flood_replies`.
"""

from __future__ import annotations

from repro.core.strategies import (
    MAX_TTL,
    AccessResult,
    AccessStrategy,
    ProbeFn,
    StoreFn,
    flood_replies,
    settle_lookup,
)
from repro.simnet.network import SimNetwork


class GossipFloodStrategy(AccessStrategy):
    """Whole-network flood with probabilistic quorum membership."""

    name = "GOSSIP-FLOOD"
    uniform_random = True

    def _flood(self, net: SimNetwork, origin: int, target_size: int,
               result: AccessResult):
        """Flood everyone; each covered node joins the quorum
        independently with p = target/|covered|.  The flood's outcome
        and the members."""
        outcome = net.flood(origin, ttl=MAX_TTL)
        result.messages += outcome.messages
        covered = outcome.covered
        if not covered:
            return outcome, []
        rng = net.rngs.stream("gossip-strategy")
        p = min(1.0, target_size / len(covered))
        members = [node for node in covered if rng.random() < p]
        if not members:  # never return an empty quorum
            members = [rng.choice(list(covered))]
        return outcome, members

    def _advertise(self, net: SimNetwork, origin: int, store_fn: StoreFn,
                   target_size: int) -> AccessResult:
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=target_size)
        outcome, members = self._flood(net, origin, target_size, result)
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
        outcome, members = self._flood(net, origin, target_size, result)
        result.quorum = sorted(members)
        flood_replies(net, origin, outcome, members, probe_fn, result)
        settle_lookup(result, len(members) >= 1)
        return result
