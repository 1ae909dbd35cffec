"""Membership services (Section 4.1).

Two membership flavours back the RANDOM access strategy:

* :class:`FullMembership` — classic membership knowledge (the paper:
  "implemented, e.g., by every node occasionally flooding the network with
  its id").  We model the steady state — every node can enumerate the ids
  that were alive at the last refresh — and charge its amortised cost
  separately, exactly as the paper does ("this cost is amortized over all
  advertise accesses", Section 8.1).
* :class:`RandomMembership` — a RaWMS-style random membership service: each
  node holds ``2*sqrt(n)`` uniformly chosen node ids, periodically
  refreshed.  The underlying uniform sampling is provided either by an
  oracle (cheap, used when the membership cost is amortised away) or by
  honest max-degree random walks (:mod:`repro.randomwalk`).

Both refresh on a timer, so after churn the view is stale until the next
refresh — which is what makes accessing a failed member possible, the
failure mode Section 6.2's adaptation handles.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from repro.sim.kernel import PeriodicTimer
from repro.simnet.network import SimNetwork


class MembershipFreezeMixin:
    """Staleness injection: a frozen membership skips refreshes.

    Fault campaigns freeze views to model epochs where membership
    floods/walks are lost, so accesses keep targeting a stale id set.
    """

    frozen: bool = False

    def freeze(self) -> None:
        self.frozen = True

    def thaw(self, refresh: bool = True) -> None:
        self.frozen = False
        if refresh:
            self.refresh()  # type: ignore[attr-defined]


class FullMembership(MembershipFreezeMixin):
    """Snapshot-based full membership view."""

    def __init__(self, net: SimNetwork, refresh_interval: float = 60.0) -> None:
        self.net = net
        self._view: List[int] = net.alive_nodes()
        self._timer = PeriodicTimer(net.sim, refresh_interval, self.refresh)

    def refresh(self) -> None:
        """Re-learn the alive set (models a membership flood epoch)."""
        if self.frozen:
            return
        self._view = self.net.alive_nodes()

    def view(self, node_id: Optional[int] = None) -> List[int]:
        """Membership list as seen by ``node_id`` (view is global here)."""
        return list(self._view)

    def sample(self, k: int, rng: random.Random,
               exclude: Optional[int] = None) -> List[int]:
        """``k`` distinct uniformly random members (stale view)."""
        pool = [v for v in self._view if v != exclude]
        if k >= len(pool):
            return list(pool)
        return rng.sample(pool, k)

    def sample_for(self, node_id: int, k: int, rng: random.Random) -> List[int]:
        """``k`` distinct random members as seen by ``node_id`` (self excluded)."""
        return self.sample(k, rng, exclude=node_id)

    def stop(self) -> None:
        self._timer.stop()


class RandomMembership(MembershipFreezeMixin):
    """RaWMS-style partial random membership.

    Every node keeps a private list of ``view_size`` uniform node ids
    (default ``2*sqrt(n)``, the paper's setting).  Advertise/lookup RANDOM
    quorums are drawn from this list, which is why the paper's advertise
    message count flattens at ``|Q| >= 2*sqrt(n)`` (Figure 8).
    """

    def __init__(
        self,
        net: SimNetwork,
        view_size: Optional[int] = None,
        refresh_interval: float = 120.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.net = net
        self.rng = rng or net.rngs.stream("membership")
        self._view_size = view_size
        self._views: dict[int, List[int]] = {}
        self._timer = PeriodicTimer(net.sim, refresh_interval, self.refresh)
        self.refresh()

    @property
    def view_size(self) -> int:
        if self._view_size is not None:
            return self._view_size
        return max(1, int(round(2.0 * math.sqrt(self.net.n_alive))))

    def refresh(self) -> None:
        """Draw a fresh uniform view for every alive node."""
        if self.frozen:
            return
        alive = self.net.alive_nodes()
        size = self.view_size
        self._views = {}
        k = min(size, len(alive) - 1)
        for i, node in enumerate(alive):
            # Everyone but the node itself, in id order.
            self._views[node] = self.rng.sample(alive[:i] + alive[i + 1:], k)

    def view(self, node_id: int) -> List[int]:
        """The stale random view held by ``node_id``."""
        if node_id not in self._views:
            # Late joiner: bootstrap a view on first use.
            alive = [v for v in self.net.alive_nodes() if v != node_id]
            k = min(self.view_size, len(alive))
            self._views[node_id] = self.rng.sample(alive, k)
        return list(self._views[node_id])

    def sample(self, k: int, rng: random.Random, node_id: int,
               exclude: Optional[int] = None) -> List[int]:
        """``k`` distinct ids drawn from the node's random view."""
        # The stored list is only read here; `view` bootstraps a joiner.
        held = self._views.get(node_id) or self.view(node_id)
        pool = [v for v in held if v != exclude]
        if k >= len(pool):
            return pool
        return rng.sample(pool, k)

    def sample_for(self, node_id: int, k: int, rng: random.Random) -> List[int]:
        """``k`` distinct ids from the node's random view (self excluded)."""
        return self.sample(k, rng, node_id, exclude=node_id)

    def stop(self) -> None:
        self._timer.stop()


def uniform_sample(universe: Sequence[int], k: int,
                   rng: random.Random) -> List[int]:
    """``k`` distinct uniform elements (the whole set if k >= len)."""
    if k >= len(universe):
        return list(universe)
    return rng.sample(list(universe), k)
