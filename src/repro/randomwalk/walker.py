"""Random walks over a live ad hoc network (Sections 4.2, 4.3, 6.2).

Implements the walk machinery behind the PATH and UNIQUE-PATH access
strategies:

* **simple random walk** — each step moves to a uniformly chosen neighbor
  from the node's (possibly stale) neighbor table;
* **self-avoiding (unique) walk** — prefers neighbors not yet visited,
  falling back to a uniform neighbor when all are visited (Section 4.3);
* **RW salvation** — when the MAC reports a failed forward (the chosen
  neighbor moved away or died), the node immediately retries another random
  neighbor *within the same step* (Section 6.2, from RaWMS);
* **early halting** — an optional per-node stop predicate aborts the walk
  the moment the searched datum is found (Section 7.1);
* the walk header records the visited-node list, which both counts distinct
  nodes and provides the reverse path for replies.

Also provides the **max-degree random walk** used for uniform sampling in
the membership-free RANDOM implementation (Section 4.1, RaWMS).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

from repro.obs.trace import record_event
from repro.simnet.network import SimNetwork


@dataclass
class WalkResult:
    """Outcome of one random walk."""

    visited: List[int]              # distinct nodes in first-visit order
    path: List[int]                 # full node sequence (with revisits)
    steps: int                      # successful forwards (network messages)
    messages: int                   # total network messages incl. failed tries
    completed: bool                 # reached the target unique count
    halted_early: bool = False      # stop predicate fired
    halted_at: Optional[int] = None
    dropped: bool = False           # walk died (no forwardable neighbor)

    @property
    def unique_count(self) -> int:
        return len(self.visited)


def random_walk(
    net: SimNetwork,
    start: int,
    target_unique: int,
    unique: bool = False,
    salvation: bool = True,
    stop_predicate: Optional[Callable[[int], bool]] = None,
    visit: Optional[Callable[[int], None]] = None,
    max_steps: Optional[int] = None,
    rng: Optional[random.Random] = None,
    use_stale_neighbors: bool = True,
) -> WalkResult:
    """Run one (self-avoiding) random walk until it has visited
    ``target_unique`` distinct nodes.

    ``stop_predicate(node)`` is evaluated on every *newly visited* node
    (including the start); returning True halts the walk early.
    ``visit(node)`` is invoked on each first visit (e.g. to store an
    advertisement).  ``max_steps`` bounds runaway walks (defaults to
    ``20 * target_unique + 50``).

    Next hops are chosen from the node's heartbeat neighbor table (stale
    under mobility) unless ``use_stale_neighbors=False``; a failed one-hop
    forward triggers salvation retries when enabled, otherwise drops the
    walk.
    """
    if target_unique < 1:
        raise ValueError("target_unique must be >= 1")
    if not net.is_alive(start):
        return WalkResult(visited=[], path=[], steps=0, messages=0,
                          completed=False, dropped=True)
    rng = rng or net.rngs.stream("walk")
    if max_steps is None:
        max_steps = 20 * target_unique + 50

    visited: List[int] = [start]
    visited_set: Set[int] = {start}
    path: List[int] = [start]
    steps = 0
    messages = 0

    if visit is not None:
        visit(start)
    if stop_predicate is not None and stop_predicate(start):
        return WalkResult(visited=visited, path=path, steps=steps,
                          messages=messages, completed=True,
                          halted_early=True, halted_at=start)

    current = start
    while len(visited_set) < target_unique and steps < max_steps:
        neighbors = (net.known_neighbors(current) if use_stale_neighbors
                     else net.true_neighbors(current))
        if not neighbors:
            return WalkResult(visited=visited, path=path, steps=steps,
                              messages=messages, completed=False, dropped=True)
        if unique:
            fresh = [v for v in neighbors if v not in visited_set]
            candidates = fresh if fresh else list(neighbors)
        else:
            candidates = list(neighbors)
        rng.shuffle(candidates)

        forwarded_to: Optional[int] = None
        attempts = candidates if salvation else candidates[:1]
        for candidate in attempts:
            messages += 1
            if net.one_hop_unicast(current, candidate):
                forwarded_to = candidate
                break
            if not salvation:
                break
        if forwarded_to is None:
            return WalkResult(visited=visited, path=path, steps=steps,
                              messages=messages, completed=False, dropped=True)

        steps += 1
        record_event(net, "walk-step", walk="random", src=path[-1],
                     dst=forwarded_to, step=steps, unique=unique)
        current = forwarded_to
        path.append(current)
        if current not in visited_set:
            visited_set.add(current)
            visited.append(current)
            if visit is not None:
                visit(current)
            if stop_predicate is not None and stop_predicate(current):
                return WalkResult(visited=visited, path=path, steps=steps,
                                  messages=messages, completed=True,
                                  halted_early=True, halted_at=current)

    completed = len(visited_set) >= target_unique
    return WalkResult(visited=visited, path=path, steps=steps,
                      messages=messages, completed=completed)


@dataclass
class SampleResult:
    """Outcome of one max-degree random-walk sample."""

    node: Optional[int]
    steps: int      # walk transitions including self-loops
    messages: int   # actual transmissions (self-loops are free)
    path: List[int] = field(default_factory=list)  # hops taken (for replies)


def max_degree_walk_sample(
    net: SimNetwork,
    start: int,
    walk_length: Optional[int] = None,
    max_degree: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> SampleResult:
    """Draw one near-uniform node sample with a max-degree random walk.

    At node ``u`` with degree ``d(u)``: move to a uniform neighbor with
    probability ``d(u)/d_max``, otherwise self-loop.  This walk's stationary
    distribution is uniform; after the mixing time (~``n/2`` steps on RGGs,
    per RaWMS) the end node is a uniform sample.
    """
    rng = rng or net.rngs.stream("mdwalk")
    n = net.n_alive
    if walk_length is None:
        walk_length = max(1, n // 2)
    if max_degree is None:
        # Scan stored list lengths directly: known_neighbors() copies
        # every list, which dominates at large n.
        tables = getattr(net, "_known_neighbors", None)
        if tables is not None:
            degrees = [len(tables.get(v, ())) for v in net.alive_nodes()]
        else:
            degrees = [len(net.known_neighbors(v)) for v in net.alive_nodes()]
        max_degree = max(degrees) if degrees else 1
    if not net.is_alive(start):
        return SampleResult(node=None, steps=0, messages=0)

    current = start
    steps = 0
    messages = 0
    path = [start]
    for _ in range(walk_length):
        steps += 1
        neighbors = net.known_neighbors(current)
        if not neighbors:
            return SampleResult(node=None, steps=steps, messages=messages,
                                path=path)
        if rng.random() >= len(neighbors) / max(max_degree, len(neighbors)):
            continue  # self-loop: no transmission
        candidates = list(neighbors)
        rng.shuffle(candidates)
        forwarded: Optional[int] = None
        for candidate in candidates:  # salvation built in
            messages += 1
            if net.one_hop_unicast(current, candidate):
                forwarded = candidate
                break
        if forwarded is None:
            return SampleResult(node=None, steps=steps, messages=messages,
                                path=path)
        record_event(net, "walk-step", walk="max-degree", src=current,
                     dst=forwarded, step=steps)
        current = forwarded
        path.append(current)
    return SampleResult(node=current, steps=steps, messages=messages, path=path)
