"""Figure 7 — degradation of the intersection probability under churn.

Plots the Section 6.1 closed forms for all churn cases and cross-validates
them with a direct Monte-Carlo simulation of the quorum selection process
(no network needed: the degradation analysis is purely combinatorial).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.degradation import (
    miss_failures_adjusted_lookup,
    miss_failures_constant_lookup,
    miss_joins_adjusted_lookup,
    miss_joins_and_failures,
    miss_joins_constant_lookup,
)

CHURN_MODES = (
    "failures-constant",
    "failures-adjusted",
    "joins-constant",
    "joins-adjusted",
    "both",
)

_CLOSED_FORMS: Dict[str, Callable[[float, float], float]] = {
    "failures-constant": miss_failures_constant_lookup,
    "failures-adjusted": miss_failures_adjusted_lookup,
    "joins-constant": miss_joins_constant_lookup,
    "joins-adjusted": miss_joins_adjusted_lookup,
    "both": miss_joins_and_failures,
}


@dataclass
class DegradationPoint:
    """Intersection probability at churn fraction ``f`` for one mode."""

    mode: str
    f: float
    analytic_intersection: float
    simulated_intersection: float


def _simulate_once(rng: random.Random, n0: int, qa0: int, ql0: int,
                   f: float, mode: str) -> bool:
    """One Monte-Carlo trial of advertise-then-churn-then-lookup."""
    universe = list(range(n0))
    advertise = set(rng.sample(universe, qa0))

    if mode.startswith("failures") or mode == "both":
        failed = set(rng.sample(universe, int(round(f * n0))))
    else:
        failed = set()
    joined: List[int] = []
    if mode.startswith("joins") or mode == "both":
        joined = list(range(n0, n0 + int(round(f * n0))))

    survivors = [v for v in universe if v not in failed] + joined
    advertise_alive = advertise - failed
    n_t = len(survivors)

    if mode in ("failures-adjusted", "joins-adjusted"):
        c = ql0 / math.sqrt(n0)
        ql_t = max(1, int(round(c * math.sqrt(n_t))))
    else:
        ql_t = ql0
    ql_t = min(ql_t, n_t)
    lookup = set(rng.sample(survivors, ql_t))
    return bool(lookup & advertise_alive)


def degradation_curves(
    epsilon: float = 0.05,
    fractions: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    n: int = 400,
    trials: int = 300,
    modes: Sequence[str] = CHURN_MODES,
) -> List[DegradationPoint]:
    """Analytic + Monte-Carlo intersection probability vs churn fraction.

    Quorums are sized symmetrically for the initial epsilon; churn then
    fails/joins a fraction ``f`` of the network.
    """
    rng = random.Random(0)
    q0 = int(math.ceil(math.sqrt(n * math.log(1.0 / epsilon))))
    points: List[DegradationPoint] = []
    for mode in modes:
        fn = _CLOSED_FORMS[mode]
        for f in fractions:
            analytic = 1.0 - fn(epsilon, f)
            successes = sum(
                _simulate_once(rng, n, q0, q0, f, mode)
                for _ in range(trials)
            )
            points.append(DegradationPoint(
                mode=mode, f=f, analytic_intersection=analytic,
                simulated_intersection=successes / trials))
    return points
