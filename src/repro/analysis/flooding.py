"""Analytic flooding-coverage model (Section 4.4, Figure 5).

For uniformly distributed nodes of average degree ``d_avg``, a flood with
time-to-live ``ttl`` covers roughly the disk of radius ``kappa * ttl * r``
around the originator (``kappa`` < 1 is the effective per-hop geometric
progress), giving

    N(ttl) ~ min(n, 1 + d_avg * (kappa * ttl)^2)

and the coverage granularity ``CG(i) = N(i) / N(i-1)`` approaches
``(i / (i-1))^2`` — matching the paper's measurements (CG(3) > 2,
CG(4) ~ 1.75).  The *measured* coverage lives in the simulation benches;
this model is what the analytic-TTL flooding implementation uses when the
density is known.
"""

from __future__ import annotations


#: Effective per-hop forward progress as a fraction of the radio range.
DEFAULT_KAPPA = 0.85


def expected_coverage(n: int, avg_degree: float, ttl: int,
                      kappa: float = DEFAULT_KAPPA) -> float:
    """Expected number of distinct nodes covered by a TTL-scoped flood."""
    if ttl < 0:
        raise ValueError("ttl must be non-negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    if ttl == 0:
        return 1.0
    covered = 1.0 + avg_degree * (kappa * ttl) ** 2
    return min(float(n), covered)


def coverage_granularity(n: int, avg_degree: float, ttl: int,
                         kappa: float = DEFAULT_KAPPA) -> float:
    """``CG(ttl) = N(ttl) / N(ttl - 1)`` (Section 4.4)."""
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    below = expected_coverage(n, avg_degree, ttl - 1, kappa)
    return expected_coverage(n, avg_degree, ttl, kappa) / below


def ttl_for_coverage(n: int, avg_degree: float, target: int,
                     kappa: float = DEFAULT_KAPPA) -> int:
    """Smallest TTL whose expected coverage reaches ``target`` nodes.

    The analytic-TTL implementation of the FLOODING strategy (the paper's
    first variant: density known, uniform placement).
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    if target == 1:
        return 0
    if target > n:
        raise ValueError("cannot cover more nodes than exist")
    ttl = 1
    while expected_coverage(n, avg_degree, ttl, kappa) < target:
        ttl += 1
        if ttl > 10_000:
            raise RuntimeError("TTL search did not converge")
    return ttl
