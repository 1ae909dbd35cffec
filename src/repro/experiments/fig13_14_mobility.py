"""Figures 13 & 14 — fast mobility and its remedies, plus churn (14f).

Figure 13 (no reply-path repair): as the max speed grows from 2 to 20 m/s,
the *hit ratio* deteriorates — but the intersection probability itself does
not (RW salvation keeps the walk alive); the loss is entirely reply
messages dropped on the broken reverse path.

Figure 14 (with reply-path local repair, TTL 3 + global fallback): the hit
ratio is restored at the cost of extra routing; a larger advertise quorum
(3 sqrt(n)) also helps proactively by shortening lookups.  Figure 14(f):
intersection probability under batch churn with adjusted |Ql| degrades
only slowly (0.95 -> ~0.87 at 50% churn).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.strategies import RandomStrategy, UniquePathStrategy
from repro.experiments.common import (
    ScenarioStats,
    make_membership,
    run_scenario,
    scenario_config,
)
from repro.experiments.montecarlo import run_replicated
from repro.experiments.runner import run_sweep
from repro.simnet.churn import apply_churn


@dataclass
class MobilityPoint:
    """Lookup behaviour at one max speed."""

    n: int
    max_speed: float
    local_repair: bool
    advertise_factor: float
    hit_ratio: float
    intersection_ratio: float     # hits ignoring reply delivery
    reply_drop_ratio: float
    avg_messages: float
    avg_routing: float
    reps: int = 1
    ci: Dict[str, float] = field(default_factory=dict)  # metric -> half-width


def _mobility_point(speed, task_seed, *, n: int, local_repair: bool,
                    advertise_factor: float, lookup_factor: float,
                    n_keys: int, n_lookups: int, salvation: bool,
                    hop_latency: float, seed: int, reps: int = 1,
                    ci_target: Optional[float] = None) -> MobilityPoint:
    """One max-speed sweep point (process-pool worker)."""
    qa = max(1, int(round(advertise_factor * math.sqrt(n))))
    ql = max(1, int(round(lookup_factor * math.sqrt(n))))

    def run(net, rep_seed):
        membership = make_membership(net, "random")
        return run_scenario(
            net,
            advertise_strategy=RandomStrategy(membership),
            lookup_strategy=UniquePathStrategy(
                salvation=salvation,
                local_repair=local_repair,
                allow_global_repair=local_repair),
            advertise_size=qa, lookup_size=ql,
            n_keys=n_keys, n_lookups=n_lookups, seed=rep_seed,
        )

    outcome = run_replicated(
        scenario_config(n, mobility="waypoint", max_speed=speed, seed=seed,
                        hop_latency=hop_latency),
        run, base_seed=seed, reps=reps,
        target_halfwidth=ci_target)
    return MobilityPoint(
        n=n, max_speed=speed, local_repair=local_repair,
        advertise_factor=advertise_factor,
        hit_ratio=outcome.mean("hit_ratio"),
        intersection_ratio=outcome.mean("intersection_ratio"),
        reply_drop_ratio=outcome.mean("reply_drop_ratio"),
        avg_messages=outcome.mean("avg_lookup_messages"),
        avg_routing=outcome.mean("avg_lookup_routing"),
        reps=outcome.reps, ci=outcome.ci_dict())


def mobility_sweep(
    n: int = 200,
    speeds: Sequence[float] = (2.0, 5.0, 10.0, 20.0),
    local_repair: bool = False,
    advertise_factor: float = 2.0,
    lookup_factor: float = 1.15,
    n_keys: int = 10,
    n_lookups: int = 50,
    salvation: bool = True,
    hop_latency: float = 0.05,
    seed: int = 0,
    jobs: Optional[int] = None,
    reps: int = 1,
    ci_target: Optional[float] = None,
) -> List[MobilityPoint]:
    """Hit ratio / intersection / reply drops vs maximum node speed.

    ``hop_latency`` models the per-hop MAC/queueing delay under load
    (~50 ms); it is what gives mobility time to break the reverse path
    while a long walk plus its reply are in flight.
    """
    return run_sweep(
        list(speeds),
        partial(_mobility_point, n=n, local_repair=local_repair,
                advertise_factor=advertise_factor,
                lookup_factor=lookup_factor, n_keys=n_keys,
                n_lookups=n_lookups, salvation=salvation,
                hop_latency=hop_latency, seed=seed, reps=reps,
                ci_target=ci_target),
        jobs=jobs, base_seed=seed, combine=lambda results: results[0])


@dataclass
class ChurnPoint:
    """Figure 14(f): intersection probability after batch churn."""

    n: int
    churn_fraction: float
    hit_ratio: float
    analytic_floor: float   # eps^(1-f) closed-form prediction
    reps: int = 1
    ci: Dict[str, float] = field(default_factory=dict)  # metric -> half-width


def _churn_point(f, task_seed, *, n: int, avg_degree: float, epsilon: float,
                 n_keys: int, n_lookups: int, seed: int, reps: int = 1,
                 ci_target: Optional[float] = None) -> ChurnPoint:
    """One churn-fraction sweep point (process-pool worker)."""
    from repro.core.biquorum import ProbabilisticBiquorum
    from repro.services.location import LocationService

    q0 = max(1, int(math.ceil(math.sqrt(n * math.log(1.0 / epsilon)))))

    def run(net, rep_seed):
        membership = make_membership(net, "random")
        rng = random.Random(rep_seed)
        biquorum = ProbabilisticBiquorum(
            net,
            advertise=RandomStrategy(membership),
            lookup=UniquePathStrategy(),
            advertise_size=q0, lookup_size=q0,
            adjust_to_network_size=False,
        )
        service = LocationService(biquorum)
        keys = [f"key-{i}" for i in range(n_keys)]
        for key in keys:
            service.advertise(net.random_alive_node(rng), key, key)

        apply_churn(net, fail_fraction=f, join_fraction=f, rng=rng,
                    keep_connected=True)
        membership.refresh()

        # Adjust |Ql| to the post-churn network size (Section 6.1).
        c = q0 / math.sqrt(n)
        biquorum.set_sizes(
            lookup_size=max(1, int(round(c * math.sqrt(net.n_alive)))))

        hits = 0
        for _ in range(n_lookups):
            looker = net.random_alive_node(rng)
            hits += bool(service.lookup(looker, rng.choice(keys)).found)
        return ScenarioStats(n=net.n_alive, lookups=n_lookups, hits=hits)

    outcome = run_replicated(
        scenario_config(n, avg_degree=avg_degree, seed=seed), run,
        base_seed=seed, reps=reps,
        target_halfwidth=ci_target)
    return ChurnPoint(
        n=n, churn_fraction=f, hit_ratio=outcome.mean("hit_ratio"),
        analytic_floor=1.0 - epsilon ** (1.0 - f),
        reps=outcome.reps, ci=outcome.ci_dict())


def churn_sweep(
    n: int = 200,
    avg_degree: float = 15.0,
    fractions: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    epsilon: float = 0.05,
    n_keys: int = 10,
    n_lookups: int = 50,
    seed: int = 0,
    jobs: Optional[int] = None,
    reps: int = 1,
    ci_target: Optional[float] = None,
) -> List[ChurnPoint]:
    """Figure 14(f): advertise, churn (fail+join), then lookup with |Ql|
    adjusted to the new network size."""
    return run_sweep(
        list(fractions),
        partial(_churn_point, n=n, avg_degree=avg_degree, epsilon=epsilon,
                n_keys=n_keys, n_lookups=n_lookups, seed=seed, reps=reps,
                ci_target=ci_target),
        jobs=jobs, base_seed=seed, combine=lambda results: results[0])
