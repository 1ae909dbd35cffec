"""Maintenance degradation under churn, with and without refresh (§6).

The paper's Section 6.1 analyses how the intersection probability of a
quorum established *before* churn degrades as nodes join/fail, and
prescribes periodic readvertising to restore it.  This experiment
measures that degradation end-to-end on the simulated deployment: a
batch of advertisements at t=0, a fault campaign driving churn, and the
*expected* advertise/lookup intersection probability sampled over time —
computed exactly (hypergeometric) from the surviving owner sets rather
than estimated by Monte-Carlo lookups, so the curves are deterministic:

    Pr(miss) = C(n - o, ql) / C(n, ql)
             = prod_{i=0}^{ql-1} (n - o - i) / (n - i)

for a key with ``o`` surviving owners in an ``n``-node network probed by
a uniform lookup quorum of size ``ql``.  Without refresh the curve
degrades monotonically as the campaign churns the network; with the
(churn-adaptive) refresh daemon running, readvertise rounds restore the
owner sets and flatten the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.strategies import RandomStrategy, UniquePathStrategy
from repro.faults.campaign import CampaignRunner, load_campaign
from repro.membership.service import RandomMembership
from repro.services.location import LocationService
from repro.services.maintenance import RefreshDaemon
from repro.simnet.network import NetworkConfig, SimNetwork


@dataclass(frozen=True)
class MaintenancePoint:
    """One sample of the expected intersection probability."""

    refresh: str          # "off" | "on"
    t: float
    n_alive: int
    intersection: float
    refresh_rounds: int


def expected_intersection(service: LocationService, net: SimNetwork,
                          lookup_size: int) -> float:
    """Mean exact intersection probability over the advertised keys."""
    n = net.n_alive
    ql = min(lookup_size, n)
    misses: List[float] = []
    for key in service.advertised_keys():
        owners = len(service.owners_of(key))
        miss = 1.0
        for i in range(ql):
            denom = n - i
            if denom <= 0 or n - owners - i <= 0:
                miss = 0.0
                break
            miss *= (n - owners - i) / denom
        misses.append(miss)
    if not misses:
        return 1.0
    return 1.0 - sum(misses) / len(misses)


#: The experiment's fixed setup: one deployment seed for both legs, the
#: join-surge campaign run SETTLE seconds past its end, an adaptive
#: refresh starting at REFRESH_INTERVAL against a MIN_INTERSECTION
#: floor, and SAMPLES evenly spaced readings.
SEED = 7
CAMPAIGN = "join-surge"
SETTLE = 5.0
REFRESH_INTERVAL = 15.0
MIN_INTERSECTION = 0.9
SAMPLES = 12


def maintenance_curves(
    n: int = 100,
    epsilon: float = 0.05,
    n_keys: int = 8,
) -> List[MaintenancePoint]:
    """Degradation curves with refresh off vs. adaptive refresh on.

    Both runs use the same seed, so the campaign's churn schedule is
    identical; the only difference is whether the refresh daemon runs.
    """
    points: List[MaintenancePoint] = []
    for refresh_mode in ("off", "on"):
        net = SimNetwork(NetworkConfig(n=n, seed=SEED))
        membership = RandomMembership(net)
        size = max(1, int(round(math.sqrt(n * math.log(1.0 / epsilon)))))
        biquorum = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=UniquePathStrategy(),
            advertise_size=size, lookup_size=size,
            adjust_to_network_size=False)
        service = LocationService(biquorum)

        daemon: Optional[RefreshDaemon] = None
        if refresh_mode == "on":
            daemon = RefreshDaemon(
                service, interval=REFRESH_INTERVAL, epsilon=epsilon,
                min_intersection=MIN_INTERSECTION, adaptive=True)

        wrng = net.rngs.stream("workload")
        for i in range(n_keys):
            origin = net.random_alive_node(wrng)
            service.advertise(origin, f"key-{i}", f"value-{i}")

        plan = load_campaign(CAMPAIGN)
        runner = CampaignRunner(net, plan,
                                memberships=(membership,)).start()
        duration = plan.duration + SETTLE
        start = net.now
        for s in range(SAMPLES + 1):
            net.run_until(start + duration * s / SAMPLES)
            points.append(MaintenancePoint(
                refresh=refresh_mode,
                t=net.now,
                n_alive=net.n_alive,
                intersection=expected_intersection(
                    service, net, biquorum.sizing.lookup_size),
                refresh_rounds=daemon.stats.rounds if daemon else 0,
            ))
        runner.stop()
        if daemon is not None:
            daemon.stop()
        membership.stop()
    return points
