"""Figure 4 — partial cover time of random walks on RGG deployments.

Measures the number of random-walk steps needed to visit a given number of
distinct nodes, for simple (PATH) and self-avoiding (UNIQUE-PATH) walks,
across network sizes and densities.  The paper's findings to reproduce:

* steps/unique stays a small constant (~1.7 at d_avg=10) for |Q| up to
  ~sqrt(n) — PCT is linear in the covered count (Theorem 4.1);
* sparser networks cost more (~2.5 at d_avg=7), denser ones approach the
  complete-graph behaviour;
* UNIQUE-PATH almost never revisits: steps/unique ~ 1 regardless of density.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.common import make_network
from repro.randomwalk.walker import random_walk
from repro.simnet.network import SimNetwork


@dataclass
class PctPoint:
    """One measurement: cost of covering ``unique_target`` distinct nodes."""

    n: int
    avg_degree: float
    unique_target: int
    unique: bool                 # self-avoiding?
    steps_per_unique: float      # mean steps / distinct nodes visited
    mean_steps: float
    walks: int


def measure_pct(
    net: SimNetwork,
    unique_target: int,
    self_avoiding: bool,
    walks: int = 10,
    seed: int = 0,
) -> Tuple[float, float]:
    """Mean (steps, steps-per-unique) over ``walks`` walks on one network."""
    rng = random.Random(seed)
    total_steps = 0
    total_unique = 0
    done = 0
    attempts = 0
    while done < walks and attempts < 4 * walks:
        attempts += 1
        start = net.random_alive_node(rng)
        result = random_walk(net, start, target_unique=unique_target,
                             unique=self_avoiding, rng=rng,
                             max_steps=60 * unique_target + 200)
        if not result.completed:
            continue
        total_steps += result.steps
        total_unique += result.unique_count
        done += 1
    if done == 0:
        return float("nan"), float("nan")
    return total_steps / done, total_steps / max(1, total_unique)


def pct_by_network_size(
    sizes: Sequence[int] = (50, 100, 200, 400),
    coverage_fractions: Sequence[float] = (0.5, 1.0, 2.0),
    walks: int = 10,
) -> List[PctPoint]:
    """Figure 4(a)/(c): steps-per-unique vs covered count, per network size.

    ``coverage_fractions`` are multiples of sqrt(n) for the target count.
    """
    points: List[PctPoint] = []
    for n in sizes:
        net = make_network(n, avg_degree=10.0, seed=0)
        for frac in coverage_fractions:
            target = max(2, int(round(frac * (n ** 0.5))))
            target = min(target, n - 1)
            for self_avoiding in (False, True):
                steps, per_unique = measure_pct(
                    net, target, self_avoiding, walks=walks, seed=1)
                points.append(PctPoint(
                    n=n, avg_degree=10.0, unique_target=target,
                    unique=self_avoiding, steps_per_unique=per_unique,
                    mean_steps=steps, walks=walks))
    return points


def pct_by_density(
    densities: Sequence[float] = (7, 10, 15, 20, 25),
    n: int = 200,
    walks: int = 10,
) -> List[PctPoint]:
    """Figure 4(b): density influence on the partial cover time."""
    points: List[PctPoint] = []
    target = max(2, int(round(n ** 0.5)))
    for d in densities:
        net = make_network(n, avg_degree=d, seed=0)
        for self_avoiding in (False, True):
            steps, per_unique = measure_pct(
                net, target, self_avoiding, walks=walks, seed=1)
            points.append(PctPoint(
                n=n, avg_degree=d, unique_target=target,
                unique=self_avoiding, steps_per_unique=per_unique,
                mean_steps=steps, walks=walks))
    return points
