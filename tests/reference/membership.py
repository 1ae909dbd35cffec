"""Eager membership oracle: every view of an epoch, drawn at its refresh.

``RandomMembership`` draws a node's view lazily, on its first read in a
view epoch, from a stream keyed on (epoch key, node id).  The recipe it
is held to is spelled out here the eager way: at each refresh every
alive node, in id order, gets its view at once over "the alive set but
itself, in id order" — built by filtering, not by slicing a snapshot.  A
node that is not in the refresh's alive set (a late joiner) bootstraps
on its first read from the alive set of that moment and keeps the view
for the epoch.

The epoch key is one ``getrandbits(64)`` draw from the membership
stream, and a node's stream is seeded with ``node << 64 | key``; both are
part of the contract, so they are restated rather than imported.
"""

import math
import random
from typing import Dict, List, Optional


def view_stream(key: int, node: int) -> random.Random:
    """The (epoch key, node) stream one view is drawn from."""
    return random.Random((node << 64) | key)


class EagerViews:
    """All views of the current epoch, drawn at :meth:`refresh`.

    ``rng`` must be a twin of the membership's stream (same seed, same
    draws so far); the caller refreshes both together, and skips both
    while the membership is frozen.
    """

    def __init__(self, net, rng: random.Random,
                 view_size: Optional[int] = None) -> None:
        self.net = net
        self.rng = rng
        self.view_size = view_size
        self.refresh()

    def _size(self) -> int:
        if self.view_size is not None:
            return self.view_size
        return max(1, int(round(2.0 * math.sqrt(self.net.n_alive))))

    def refresh(self) -> None:
        alive = self.net.alive_nodes()
        size = self._size()
        self.key = self.rng.getrandbits(64)
        self.views: Dict[int, List[int]] = {}
        for node in alive:
            pool = [v for v in alive if v != node]
            self.views[node] = view_stream(self.key, node).sample(
                pool, min(size, len(pool)))

    def view(self, node: int) -> List[int]:
        """The node's view; a late joiner bootstraps from the alive set now."""
        if node not in self.views:
            pool = [v for v in self.net.alive_nodes() if v != node]
            self.views[node] = view_stream(self.key, node).sample(
                pool, min(self._size(), len(pool)))
        return list(self.views[node])
