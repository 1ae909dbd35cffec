"""Probabilistic (bi)quorum systems (Sections 2, 5).

:class:`ProbabilisticBiquorum` pairs an advertise access strategy with a
lookup access strategy — symmetric or *asymmetric* (the paper's central
contribution, Lemma 5.2) — and derives quorum sizes from the target
intersection probability:

* if at least one side is uniformly random, the mix-and-match lemma
  applies and sizes follow Corollary 5.3 (``|Qa| |Ql| >= n ln(1/eps)``),
  split either symmetrically or by Lemma 5.6's cost-optimal ratio;
* if neither side is random (e.g. UNIQUE-PATH x UNIQUE-PATH), intersection
  is driven by the crossing time (Theorem 5.5) and the empirical
  ``~1.5 n / ln n`` sizes from Section 8.5 are used — with a warning that
  these constants are topology dependent (the paper's caveat).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.intersection import (
    asymmetric_quorum_sizes,
    epsilon_for_sizes,
    required_quorum_product,
    symmetric_quorum_size,
)
from repro.analysis.costs import optimal_size_ratio
from repro.analysis.walks import path_x_path_quorum_size
from repro.core.strategies import AccessResult, AccessStrategy, ProbeFn, StoreFn
from repro.simnet.network import SimNetwork


@dataclass(frozen=True)
class QuorumSizing:
    """Chosen advertise/lookup quorum sizes and the epsilon they guarantee."""

    advertise_size: int
    lookup_size: int
    epsilon: float
    guaranteed: bool  # True when backed by Lemma 5.2 (a RANDOM side exists)

    @property
    def product(self) -> int:
        return self.advertise_size * self.lookup_size


def plan_sizes(
    n: int,
    epsilon: float,
    advertise: AccessStrategy,
    lookup: AccessStrategy,
    tau: Optional[float] = None,
    cost_a: Optional[float] = None,
    cost_l: Optional[float] = None,
    advertise_size: Optional[int] = None,
    lookup_size: Optional[int] = None,
) -> QuorumSizing:
    """Derive quorum sizes for a strategy mix at a target epsilon.

    Explicit sizes override the planner.  With ``tau`` (the lookup:advertise
    frequency ratio) and per-node costs, the asymmetric split of Lemma 5.6
    is applied; otherwise sizes are symmetric.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    has_random_side = advertise.uniform_random or lookup.uniform_random

    if advertise_size is not None and lookup_size is not None:
        eps = (epsilon_for_sizes(advertise_size, lookup_size, n)
               if has_random_side else epsilon)
        return QuorumSizing(advertise_size=advertise_size,
                            lookup_size=lookup_size, epsilon=eps,
                            guaranteed=has_random_side)

    if not has_random_side:
        warnings.warn(
            "neither quorum side is uniformly random: intersection is "
            "crossing-time driven and the sizing constants depend on the "
            "topology (Section 8.5)", stacklevel=2)
        q = path_x_path_quorum_size(n)
        return QuorumSizing(
            advertise_size=advertise_size or q,
            lookup_size=lookup_size or q,
            epsilon=epsilon, guaranteed=False)

    if advertise_size is not None:
        product = required_quorum_product(n, epsilon)
        q_l = int(math.ceil(product / advertise_size))
        return QuorumSizing(advertise_size=advertise_size,
                            lookup_size=min(q_l, n), epsilon=epsilon,
                            guaranteed=True)
    if lookup_size is not None:
        product = required_quorum_product(n, epsilon)
        q_a = int(math.ceil(product / lookup_size))
        return QuorumSizing(advertise_size=min(q_a, n),
                            lookup_size=lookup_size, epsilon=epsilon,
                            guaranteed=True)

    if tau is not None and cost_a is not None and cost_l is not None:
        ratio = optimal_size_ratio(tau, cost_a, cost_l)
        q_a, q_l = asymmetric_quorum_sizes(n, epsilon, ratio)
        return QuorumSizing(advertise_size=min(q_a, n),
                            lookup_size=min(q_l, n),
                            epsilon=epsilon, guaranteed=True)

    q = symmetric_quorum_size(n, epsilon)
    return QuorumSizing(advertise_size=min(q, n), lookup_size=min(q, n),
                        epsilon=epsilon, guaranteed=True)


class ProbabilisticBiquorum:
    """An epsilon-intersecting advertise/lookup biquorum system.

    The two strategies may differ (asymmetric biquorum) and sizes are
    derived by :func:`plan_sizes` unless given explicitly.  ``write``
    contacts an advertise quorum applying ``store_fn`` at every member;
    ``read`` contacts a lookup quorum applying ``probe_fn``.
    """

    def __init__(
        self,
        net: SimNetwork,
        advertise: AccessStrategy,
        lookup: AccessStrategy,
        epsilon: float = 0.1,
        tau: Optional[float] = None,
        cost_a: Optional[float] = None,
        cost_l: Optional[float] = None,
        advertise_size: Optional[int] = None,
        lookup_size: Optional[int] = None,
        adjust_to_network_size: bool = True,
    ) -> None:
        self.net = net
        self.advertise_strategy = advertise
        self.lookup_strategy = lookup
        self.epsilon = epsilon
        self._tau = tau
        self._cost_a = cost_a
        self._cost_l = cost_l
        self._fixed_a = advertise_size
        self._fixed_l = lookup_size
        self.adjust_to_network_size = adjust_to_network_size
        self.sizing = self._plan(net.n_alive)
        self.load: Dict[int, int] = {}
        self.accesses: list[AccessResult] = []

    def _plan(self, n: int) -> QuorumSizing:
        return plan_sizes(
            n=n, epsilon=self.epsilon,
            advertise=self.advertise_strategy, lookup=self.lookup_strategy,
            tau=self._tau, cost_a=self._cost_a, cost_l=self._cost_l,
            advertise_size=self._fixed_a, lookup_size=self._fixed_l,
        )

    def set_sizes(self, advertise_size: Optional[int] = None,
                  lookup_size: Optional[int] = None) -> QuorumSizing:
        """Pin explicit quorum sizes (e.g. adjusting |Ql| after churn)."""
        if advertise_size is not None:
            self._fixed_a = advertise_size
        if lookup_size is not None:
            self._fixed_l = lookup_size
        self.sizing = self._plan(self.net.n_alive)
        return self.sizing

    def resize(self) -> QuorumSizing:
        """Re-derive sizes for the current network size.

        Called automatically before each access when
        ``adjust_to_network_size`` is set — the paper's 'adjusted |Ql|'
        maintenance mode (Section 6.1).
        """
        self.sizing = self._plan(self.net.n_alive)
        return self.sizing

    def _record(self, result: AccessResult) -> AccessResult:
        for node in result.quorum:
            self.load[node] = self.load.get(node, 0) + 1
        self.accesses.append(result)
        return result

    def _check_latency(self, result: AccessResult, elapsed: float) -> None:
        """Cross-check the strategy's latency stamp against the elapsed
        simulated time observed at the biquorum layer.

        The strategy wrapper (``AccessStrategy._run_access``) owns the
        stamp; this independent measurement feeds the auditor so a future
        regression in the wrapper cannot silently report 0.0 again.
        """
        auditor = getattr(self.net, "auditor", None)
        if auditor is None:
            return
        if abs(result.latency - elapsed) > 1e-9:
            auditor.flag(
                "latency-cross-check",
                f"strategy stamped latency {result.latency!r} but the "
                f"biquorum layer observed {elapsed!r}",
                strategy=result.strategy, kind=result.kind)

    def write(self, origin: int, store_fn: StoreFn) -> AccessResult:
        """Access one advertise quorum, storing at every member."""
        if self.adjust_to_network_size:
            self.resize()
        started = self.net.now
        result = self.advertise_strategy.advertise(
            self.net, origin, store_fn, self.sizing.advertise_size)
        self._check_latency(result, self.net.now - started)
        return self._record(result)

    def read(self, origin: int, probe_fn: ProbeFn) -> AccessResult:
        """Access one lookup quorum, probing every member."""
        if self.adjust_to_network_size:
            self.resize()
        started = self.net.now
        result = self.lookup_strategy.lookup(
            self.net, origin, probe_fn, self.sizing.lookup_size)
        self._check_latency(result, self.net.now - started)
        return self._record(result)
