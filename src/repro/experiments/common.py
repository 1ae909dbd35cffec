"""Shared experiment harness (the paper's simulation scenario, Section 8).

Each simulation in the paper has two parts: a set of advertisements by
random nodes, then a batch of lookups by random nodes.  *Hit ratio* is the
fraction of lookups whose quorum intersected the advertisement's quorum
AND whose reply made it back — i.e. the empirical intersection
probability.  Message counts are network-layer messages; routing control
overhead is accounted separately.

:func:`run_scenario` reproduces that scenario for any strategy mix and
returns the full statistics bundle the figures plot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.strategies import AccessStrategy
from repro.membership.service import FullMembership, RandomMembership
from repro.obs.profile import profiled
from repro.services.location import LocationService
from repro.simnet.network import NetworkConfig, SimNetwork


@dataclass
class ScenarioStats:
    """Aggregate results of one advertise/lookup scenario."""

    n: int
    advertises: int = 0
    lookups: int = 0
    lookups_absent: int = 0     # lookups for never-advertised keys (miss cost)
    hits: int = 0
    intersections: int = 0      # lookups whose quorum held the datum
    reply_drops: int = 0        # intersected but the reply never arrived
    advertise_messages: int = 0
    advertise_routing: int = 0
    lookup_messages_total: int = 0
    lookup_routing_total: int = 0
    advertise_latency_total: float = 0.0  # simulated seconds
    lookup_latency_total: float = 0.0
    lookup_messages_hit: List[int] = field(default_factory=list)
    lookup_messages_miss: List[int] = field(default_factory=list)
    advertise_quorum_sizes: List[int] = field(default_factory=list)
    lookup_quorum_sizes: List[int] = field(default_factory=list)

    @property
    def lookups_present(self) -> int:
        """Lookups that targeted actually-advertised keys."""
        return self.lookups - self.lookups_absent

    @property
    def hit_ratio(self) -> float:
        """Successful lookups over lookups of advertised data — the paper's
        hit ratio (= empirical intersection probability)."""
        present = self.lookups_present
        return self.hits / present if present else 0.0

    @property
    def intersection_ratio(self) -> float:
        present = self.lookups_present
        return self.intersections / present if present else 0.0

    @property
    def reply_drop_ratio(self) -> float:
        present = self.lookups_present
        return self.reply_drops / present if present else 0.0

    @property
    def avg_advertise_messages(self) -> float:
        return (self.advertise_messages / self.advertises
                if self.advertises else 0.0)

    @property
    def avg_advertise_routing(self) -> float:
        return (self.advertise_routing / self.advertises
                if self.advertises else 0.0)

    @property
    def avg_lookup_messages(self) -> float:
        return (self.lookup_messages_total / self.lookups
                if self.lookups else 0.0)

    @property
    def avg_lookup_routing(self) -> float:
        return (self.lookup_routing_total / self.lookups
                if self.lookups else 0.0)

    @property
    def avg_advertise_latency(self) -> float:
        return (self.advertise_latency_total / self.advertises
                if self.advertises else 0.0)

    @property
    def avg_lookup_latency(self) -> float:
        return (self.lookup_latency_total / self.lookups
                if self.lookups else 0.0)

    @property
    def avg_lookup_messages_on_hit(self) -> float:
        vals = self.lookup_messages_hit
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def avg_lookup_messages_on_miss(self) -> float:
        vals = self.lookup_messages_miss
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def avg_lookup_quorum_size(self) -> float:
        """Nodes a lookup actually probed (flood coverage, en-route probes)."""
        vals = self.lookup_quorum_sizes
        return sum(vals) / len(vals) if vals else 0.0


def make_network(
    n: int,
    avg_degree: float = 10.0,
    mobility: str = "static",
    max_speed: float = 2.0,
    seed: int = 0,
    **overrides,
) -> SimNetwork:
    """Deployment with the paper's defaults (speed range 0.5..max m/s)."""
    return SimNetwork(scenario_config(
        n, avg_degree=avg_degree, mobility=mobility, max_speed=max_speed,
        seed=seed, **overrides))


def scenario_config(
    n: int,
    avg_degree: float = 10.0,
    mobility: str = "static",
    max_speed: float = 2.0,
    seed: int = 0,
    **overrides,
) -> NetworkConfig:
    """The :func:`make_network` deployment as a config (not yet built).

    The Monte-Carlo engine (:mod:`repro.experiments.montecarlo`) takes the
    config rather than a network so its batched backend can own
    construction and share geometry work across replicas.
    """
    return NetworkConfig(
        n=n, avg_degree=avg_degree, seed=seed, mobility=mobility,
        min_speed=0.5, max_speed=max_speed, **overrides,
    )


def make_membership(net: SimNetwork, kind: str = "random"):
    """The paper's membership: random views of size 2*sqrt(n)."""
    if kind == "random":
        return RandomMembership(net)
    if kind == "full":
        return FullMembership(net)
    raise ValueError(f"unknown membership kind {kind!r}")


@profiled("scenario.run")
def run_scenario(
    net: SimNetwork,
    advertise_strategy: AccessStrategy,
    lookup_strategy: AccessStrategy,
    advertise_size: int,
    lookup_size: int,
    n_keys: int = 20,
    n_lookups: int = 100,
    n_lookers: int = 25,
    miss_fraction: float = 0.0,
    warmup: float = 1.0,
    seed: int = 1,
    service: Optional[LocationService] = None,
) -> ScenarioStats:
    """The paper's two-part scenario: advertisements, then lookups.

    ``miss_fraction`` of the lookups target keys that were never advertised
    (to measure the cost of a miss, Figure 16).  Returns aggregated stats.
    """
    rng = random.Random(seed)
    net.run_until(net.now + warmup)

    if service is None:
        biquorum = ProbabilisticBiquorum(
            net, advertise=advertise_strategy, lookup=lookup_strategy,
            advertise_size=advertise_size, lookup_size=lookup_size,
            adjust_to_network_size=False,
        )
        service = LocationService(biquorum)

    stats = ScenarioStats(n=net.n_alive)

    # Part 1: advertisements by random nodes.
    keys = [f"key-{i}" for i in range(n_keys)]
    for key in keys:
        origin = net.random_alive_node(rng)
        receipt = service.advertise(origin, key, f"value-of-{key}")
        stats.advertises += 1
        stats.advertise_messages += receipt.access.messages
        stats.advertise_routing += receipt.access.routing_messages
        stats.advertise_latency_total += receipt.access.latency
        stats.advertise_quorum_sizes.append(receipt.access.quorum_size)

    # Part 2: lookups by a fixed pool of random nodes.
    alive = net.alive_nodes()
    lookers = rng.sample(alive, min(n_lookers, len(alive)))
    n_misses = int(round(miss_fraction * n_lookups))
    for i in range(n_lookups):
        looker = rng.choice(lookers)
        if i < n_misses:
            key = f"absent-{i}"
            stats.lookups_absent += 1
        else:
            key = rng.choice(keys)
        receipt = service.lookup(looker, key)
        stats.lookups += 1
        access = receipt.access
        if access is None:
            # Local hit (owner/cache): zero-message success.
            stats.hits += 1
            stats.intersections += 1
            stats.lookup_messages_hit.append(0)
            continue
        stats.lookup_messages_total += access.messages
        stats.lookup_routing_total += access.routing_messages
        stats.lookup_latency_total += access.latency
        stats.lookup_quorum_sizes.append(access.quorum_size)
        if access.found:
            stats.intersections += 1
            if receipt.found:
                stats.hits += 1
                stats.lookup_messages_hit.append(access.messages)
            else:
                stats.reply_drops += 1
        else:
            stats.lookup_messages_miss.append(access.messages)

    # End-of-run checks for any live watcher hub (REPRO_WATCH / --watch):
    # SLO partial windows and stream-final invariants evaluate here.
    hub = getattr(net, "watch_hub", None)
    if hub is not None:
        hub.finish()
    return stats


def format_table(headers: List[str], rows: List[tuple]) -> str:
    """Render an aligned ASCII table (for bench output / EXPERIMENTS.md)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
              for i, h in enumerate(headers)]
    def line(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    sep = "-+-".join("-" * w for w in widths)
    out = [line(headers), sep]
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3g}"
    return str(cell)


def format_pm(mean: float, halfwidth: Optional[float]) -> str:
    """Render ``mean ± half-width`` for figure tables.

    With no defined CI (``reps=1`` yields NaN half-widths) the cell falls
    back to the plain ``mean`` formatting, so single-replica output is
    byte-identical to the historical tables.
    """
    if halfwidth is None or halfwidth != halfwidth:
        return _fmt(float(mean))
    return f"{_fmt(float(mean))}±{halfwidth:.2g}"
