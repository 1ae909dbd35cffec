"""Network size estimation (Section 6.3).

Quorum sizing needs the network size ``n``, which individual nodes do not
know.  The paper's recipe: obtain a loose upper bound, then sharpen it by
counting collisions among uniform random-walk samples (birthday paradox;
Massoulie et al., RaWMS).  Overestimating never hurts the intersection
guarantee — it only costs extra messages — so the estimator rounds up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.resilience import (
    estimate_network_size,
    samples_for_size_estimate,
)
from repro.randomwalk.walker import max_degree_walk_sample
from repro.simnet.network import SimNetwork


@dataclass
class SizeEstimate:
    """Result of one estimation round."""

    estimate: float          # birthday-paradox point estimate (may be inf)
    conservative: int        # rounded-up value safe for quorum sizing
    samples: int             # walk samples drawn
    collisions_observed: int
    messages: int            # transmissions spent on the sampling walks


class NetworkSizeEstimator:
    """Estimates ``n`` by max-degree random-walk sampling from one node."""

    def __init__(self, net: SimNetwork, origin: int,
                 safety_factor: float = 1.25,
                 rng: Optional[random.Random] = None) -> None:
        if safety_factor < 1.0:
            raise ValueError("safety_factor must be >= 1")
        self.net = net
        self.origin = origin
        self.safety_factor = safety_factor
        self.rng = rng or net.rngs.stream("size-estimation")

    def estimate(self, target_collisions: int = 12) -> SizeEstimate:
        """One estimation round.

        Draws enough walk samples that ``target_collisions`` birthday
        collisions are expected at the upper bound, then applies the
        ``k(k-1)/(2c)`` estimator.  Walk length defaults to the mixing
        time of the *bound* (not the unknown true n) — again erring
        upward, which preserves uniformity.
        """
        bound = self.net.n_alive
        k = samples_for_size_estimate(bound, target_collisions)
        # Twice the RGG mixing time (~n/2): all samples drawn from the
        # same origin, so extra mixing keeps them near-independent.
        walk_length = max(10, bound)

        samples: List[int] = []
        messages = 0
        attempts = 0
        while len(samples) < k and attempts < 3 * k:
            attempts += 1
            result = max_degree_walk_sample(
                self.net, self.origin, walk_length=walk_length, rng=self.rng)
            messages += result.messages
            if result.node is not None:
                samples.append(result.node)

        if len(samples) < 2:
            return SizeEstimate(estimate=math.inf, conservative=bound,
                                samples=len(samples), collisions_observed=0,
                                messages=messages)
        counts: dict = {}
        for s in samples:
            counts[s] = counts.get(s, 0) + 1
        collisions = sum(c * (c - 1) // 2 for c in counts.values())
        estimate = estimate_network_size(samples)
        if math.isinf(estimate):
            conservative = bound
        else:
            conservative = int(math.ceil(self.safety_factor * estimate))
        return SizeEstimate(estimate=estimate, conservative=conservative,
                            samples=len(samples),
                            collisions_observed=collisions,
                            messages=messages)

    def quorum_size_for(self, epsilon: float) -> int:
        """Symmetric quorum size from an estimate (Corollary 5.3 applied
        to the conservative n — overestimation preserves the guarantee)."""
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        estimate = self.estimate()
        n_hat = max(2, estimate.conservative)
        return int(math.ceil(math.sqrt(n_hat * math.log(1.0 / epsilon))))
