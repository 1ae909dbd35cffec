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
  refreshed.  The uniform sample comes from an oracle sampler over the
  alive set at the refresh (RaWMS builds it from max-degree random walks,
  whose cost the paper amortises away); the walk kernel itself lives in
  :mod:`repro.randomwalk`.

Both refresh on a timer, so after churn the view is stale until the next
refresh — which is what makes accessing a failed member possible, the
failure mode Section 6.2's adaptation handles.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
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

    A refresh starts a *view epoch*: it snapshots the alive set, fixes the
    view size and takes one draw from ``rng`` as the epoch key.  A node's
    view is drawn on its first read in the epoch, from a stream keyed on
    (epoch key, node id), over the snapshot minus the node — so it is the
    same whichever views are read, and in whatever order.
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
        self._stream = random.Random(0)
        self._timer = PeriodicTimer(net.sim, refresh_interval, self.refresh)
        self.refresh()

    @property
    def view_size(self) -> int:
        if self._view_size is not None:
            return self._view_size
        return max(1, int(round(2.0 * math.sqrt(self.net.n_alive))))

    def refresh(self) -> None:
        """Start a view epoch over the current alive set (draws no view)."""
        if self.frozen:
            return
        self._snapshot = self.net.alive_nodes()
        self._size = self.view_size
        self._epoch = self.rng.getrandbits(64)
        self._views = {}

    def _draw(self, node_id: int) -> List[int]:
        """The node's view for this epoch, from its own (epoch, node) stream."""
        if not 0 <= node_id < self.net.ids_assigned:
            raise ValueError(f"node id {node_id} was never assigned by the "
                             f"network (ids 0..{self.net.ids_assigned - 1})")
        alive, size = self._snapshot, self._size
        i = bisect_left(alive, node_id)
        if i < len(alive) and alive[i] == node_id:
            # Everyone in the snapshot but the node itself, in id order.
            pool = alive[:i] + alive[i + 1:]
        else:
            # Late joiner: bootstrap from the alive set of its first read.
            pool = [v for v in self.net.alive_nodes() if v != node_id]
            size = self.view_size
        self._stream.seed((int(node_id) << 64) | self._epoch)
        view = self._stream.sample(pool, min(size, len(pool)))
        self._views[node_id] = view
        return view

    def view(self, node_id: int) -> List[int]:
        """The stale random view held by ``node_id``."""
        held = self._views.get(node_id)
        return list(self._draw(node_id) if held is None else held)

    def sample(self, k: int, rng: random.Random, node_id: int,
               exclude: Optional[int] = None) -> List[int]:
        """``k`` distinct ids drawn from the node's random view."""
        held = self._views.get(node_id)
        if held is None:
            held = self._draw(node_id)
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
