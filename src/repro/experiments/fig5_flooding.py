"""Figure 5 — flooding coverage and coverage granularity vs TTL.

Measures how many distinct nodes a TTL-scoped flood covers, across network
sizes and densities, and the coverage granularity CG(i) = N(i)/N(i-1).
The paper's findings: coverage grows superlinearly with TTL; CG(3) > 2 and
CG(4)..CG(5) sit between 1.25 and 1.75 — too coarse for fine-grained
quorum-size control.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import make_network


@dataclass
class FloodPoint:
    """Mean flood coverage at one TTL."""

    n: int
    avg_degree: float
    ttl: int
    coverage: float
    messages: float
    granularity: float  # coverage(ttl) / coverage(ttl-1); 0 for ttl=1


def flooding_coverage(
    n: int = 200,
    avg_degree: float = 10.0,
    ttls: Sequence[int] = (1, 2, 3, 4, 5, 6),
    floods_per_ttl: int = 8,
    seed: int = 0,
) -> List[FloodPoint]:
    """Average coverage per TTL from random originators."""
    net = make_network(n, avg_degree=avg_degree, seed=seed)
    rng = random.Random(seed + 1)
    points: List[FloodPoint] = []
    previous = 1.0
    for ttl in ttls:
        cov_total = 0
        msg_total = 0
        for _ in range(floods_per_ttl):
            origin = net.random_alive_node(rng)
            outcome = net.flood(origin, ttl)
            cov_total += outcome.coverage
            msg_total += outcome.messages
        coverage = cov_total / floods_per_ttl
        messages = msg_total / floods_per_ttl
        granularity = coverage / previous if ttl > min(ttls) else 0.0
        points.append(FloodPoint(n=n, avg_degree=avg_degree, ttl=ttl,
                                 coverage=coverage, messages=messages,
                                 granularity=granularity))
        previous = coverage
    return points


def flooding_by_size(
    sizes: Sequence[int] = (50, 100, 200, 400),
    ttls: Sequence[int] = (1, 2, 3, 4, 5),
    floods_per_ttl: int = 6,
) -> List[FloodPoint]:
    """Figure 5(a)/(c): coverage vs TTL across network sizes."""
    points: List[FloodPoint] = []
    for n in sizes:
        points.extend(flooding_coverage(n=n, avg_degree=10.0,
                                        ttls=ttls,
                                        floods_per_ttl=floods_per_ttl,
                                        seed=0))
    return points


def flooding_by_density(
    densities: Sequence[float] = (7, 10, 15, 20, 25),
    n: int = 200,
    ttls: Sequence[int] = (1, 2, 3, 4, 5),
    floods_per_ttl: int = 6,
) -> List[FloodPoint]:
    """Figure 5(b)/(d): coverage vs TTL across densities."""
    points: List[FloodPoint] = []
    for d in densities:
        points.extend(flooding_coverage(n=n, avg_degree=d, ttls=ttls,
                                        floods_per_ttl=floods_per_ttl,
                                        seed=0))
    return points
