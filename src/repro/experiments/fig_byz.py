"""Byzantine fault tolerance: masking quorums vs undefended RANDOM.

Sweeps the Byzantine (lying-replica) fraction and, for each point, runs
the same seeded workload twice — once over plain RANDOM quorums sized by
Lemma 5.2 and once over :class:`~repro.core.masking.MaskingStrategy`
quorums sized by the hypergeometric ``b``-masking bound (Malkhi &
Reiter's probabilistic masking quorums transplanted onto the paper's
uniform access strategies).  Each leg reports the empirical corrupt-read
fraction next to its analytic prediction, and the per-node load next to
the ``q/n`` uniform-access prediction, so the figure shows the masking
trade-off directly: corrupt reads go to zero while load rises with the
larger quorums.

The undefended leg also runs the builtin invariant watchers in
record mode (a private hub, deliberately *not* wired to the strict
auditor — the whole point of the leg is to observe the damage) and
reports how many watcher violations the adversary caused: every
undefended configuration with corrupt reads should be *caught*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.intersection import (
    masking_quorum_size,
    symmetric_quorum_size,
)
from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.masking import MaskingStrategy
from repro.core.strategies import RandomStrategy
from repro.faults.byzantine import ensure_byzantine
from repro.membership.service import RandomMembership
from repro.obs.watch import Watcher, WatcherHub, builtin_watchers
from repro.services.location import LocationService
from repro.simnet.network import NetworkConfig, SimNetwork


@dataclass(frozen=True)
class ByzPoint:
    """One (fraction, defence) cell of the Byzantine sweep."""

    mode: str                 # "undefended" | "masked"
    byz_fraction: float
    liars: int
    b: Optional[int]          # masking budget (None when undefended)
    quorum_size: int
    lookups: int
    hits: int
    masked_lookups: int       # vote filter rejected (masked leg only)
    corrupt_reads: int
    caught: int               # watcher violations during the run
    predicted_corrupt: float  # analytic corrupt-read bound for this leg
    per_node_load: float      # measured messages / (n * accesses)
    predicted_load: float     # uniform-access prediction q / n

    @property
    def corrupt_fraction(self) -> float:
        if self.lookups == 0:
            return math.nan
        return self.corrupt_reads / self.lookups

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return math.nan
        return self.hits / self.lookups


def undefended_corrupt_bound(n: int, liars: int, lookup_size: int) -> float:
    """P[a uniform lookup quorum touches at least one liar].

    Hypergeometric: an undefended lookup can only return a fabricated
    value when its quorum contains a lying replica, so this touch
    probability upper-bounds the corrupt-read fraction.
    """
    if liars <= 0 or n <= 0:
        return 0.0
    ql = min(lookup_size, n)
    clean = 1.0
    for i in range(ql):
        denom = n - i
        if denom <= 0:
            return 1.0
        clean *= max(0, n - liars - i) / denom
    return 1.0 - clean


class _ContactCounter(Watcher):
    """Counts quorum *contacts*: the store and probe events it is sent.

    Malkhi-Reiter load is the chance a node serves an access, so
    contacts / (n * accesses) is the empirical counterpart of q/n (the
    transport-message counters would count routing hops instead).  The
    hub's delivery count is the tally; no handler is needed.
    """

    name = "contacts"
    kinds = frozenset({"store", "probe"})


def _run_leg(mode: str, n: int, seed: int, fraction: float, b: Optional[int],
             epsilon: float, n_keys: int, n_lookups: int) -> ByzPoint:
    net = SimNetwork(NetworkConfig(n=n, avg_degree=10.0, seed=seed))
    # A private record-mode hub: violations are counted, never raised,
    # even when the surrounding process runs REPRO_AUDIT=strict — the
    # undefended leg *should* be violated, that is the figure's point.
    contacts = _ContactCounter()
    hub = WatcherHub(builtin_watchers(n=net.n_alive) + [contacts],
                     auditor=None)
    trace = net.trace
    if not trace.enabled:
        trace.enable(memory=False)
    hub.attach(trace)

    if mode == "masked":
        assert b is not None
        size = masking_quorum_size(n, epsilon, b)
    else:
        size = symmetric_quorum_size(n, epsilon)
    # Masking quorums outgrow the default 2*sqrt(n) partial views.
    view = max(size, int(round(2.0 * math.sqrt(n))))
    membership = RandomMembership(net, view_size=view)
    advertise = RandomStrategy(membership)
    lookup: RandomStrategy | MaskingStrategy = RandomStrategy(membership)
    if mode == "masked":
        lookup = MaskingStrategy(lookup, b)
    biquorum = ProbabilisticBiquorum(
        net, advertise=advertise, lookup=lookup,
        advertise_size=size, lookup_size=size,
        adjust_to_network_size=False)
    service = LocationService(biquorum, enable_caching=False)

    wrng = net.rngs.stream("workload")
    liars = min(n, int(round(fraction * n)))
    if liars:
        frng = net.rngs.stream("faults")
        victims = frng.sample(sorted(net.alive_nodes()), liars)
        ensure_byzantine(net).attach(victims, "lie")

    keys = [f"key-{i}" for i in range(n_keys)]
    for key in keys:
        service.advertise(net.random_alive_node(wrng), key,
                          f"value-of-{key}")
    lookups = hits = masked = corrupt = 0
    for i in range(n_lookups):
        net.advance(0.05)
        key = wrng.choice(keys)
        receipt = service.lookup(net.random_alive_node(wrng), key)
        lookups += 1
        if receipt.found:
            hits += 1
            if receipt.value != f"value-of-{key}":
                corrupt += 1
        elif receipt.access is not None and getattr(
                receipt.access, "masked", False):
            masked += 1
    hub.finish()
    hub.detach()
    membership.stop()

    metrics = net.metrics
    accesses = (metrics.counter_value("access.advertise.count")
                + metrics.counter_value("access.lookup.count"))
    load = contacts.events_seen / (n * accesses) if accesses else math.nan
    if mode == "masked":
        # Fabrications are per-node salted, so with <= b liars no wrong
        # value can muster the b+1 corroborating votes: the residual
        # corrupt bound is 0; beyond budget all bets are off (bound 1).
        predicted = 0.0 if liars <= (b or 0) else 1.0
    else:
        predicted = undefended_corrupt_bound(n, liars, size)
    return ByzPoint(
        mode=mode, byz_fraction=fraction, liars=liars, b=b,
        quorum_size=size, lookups=lookups, hits=hits,
        masked_lookups=masked, corrupt_reads=corrupt,
        caught=len(hub.violations), predicted_corrupt=predicted,
        per_node_load=load, predicted_load=min(size, n) / n)


#: Both legs of every fraction run one deployment seed.
SEED = 7


def byzantine_sweep(
    n: int = 100,
    fractions: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    b: Optional[int] = None,
    epsilon: float = 0.05,
    n_keys: int = 6,
    n_lookups: int = 80,
) -> List[ByzPoint]:
    """The ``repro byz`` sweep: fraction x {undefended, masked}.

    ``b`` defaults to the smallest budget covering the largest swept
    fraction (``ceil(max_fraction * n)``), i.e. a correctly-provisioned
    defence; pass a smaller ``b`` to study an under-provisioned one.
    """
    if not fractions:
        raise ValueError("fractions must be non-empty")
    if b is None:
        b = max(1, math.ceil(max(fractions) * n))
    points: List[ByzPoint] = []
    for fraction in fractions:
        points.append(_run_leg("undefended", n, SEED, fraction, None,
                               epsilon, n_keys, n_lookups))
        points.append(_run_leg("masked", n, SEED, fraction, b,
                               epsilon, n_keys, n_lookups))
    return points
