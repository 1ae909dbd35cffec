"""End-to-end fault-campaign scenario (the ``repro faults run`` command).

Builds a seeded deployment — RANDOM advertise / UNIQUE-PATH lookup with
an :class:`~repro.core.strategies.AccessPolicy` retry envelope, a
location service with bystander caching, and an (optionally adaptive)
refresh daemon — then runs a lookup workload while a
:class:`~repro.faults.campaign.CampaignRunner` injects the campaign's
faults.  Everything is keyed off the single master seed, so two runs
with the same arguments produce byte-identical trace summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.strategies import AccessPolicy, RandomStrategy, UniquePathStrategy
from repro.faults.campaign import CampaignRunner, FaultCampaign, load_campaign
from repro.membership.service import RandomMembership
from repro.services.location import LocationService
from repro.services.maintenance import RefreshDaemon
from repro.simnet.network import NetworkConfig, SimNetwork


#: The campaign deployment: the paper's density (§8) and miss budget.
AVG_DEGREE = 10.0
EPSILON = 0.05
#: Simulated seconds the workload runs past the campaign's last injection.
SETTLE = 10.0
#: Every access gets a 5 s deadline and two retries.
POLICY = AccessPolicy(deadline=5.0, max_retries=2)
#: ``run_fault_campaign``'s refresh daemon.
REFRESH_INTERVAL = 20.0
MIN_INTERSECTION = 0.9
#: ``run_kv_fault_campaign``'s store and op mix.
MIN_SURVIVAL = 0.9
READ_FRACTION = 0.8
CAS_FRACTION = 0.1
ZIPF_S = 0.99


@dataclass
class CampaignReport:
    """What a fault-campaign run did and how the service held up."""

    campaign: str
    n_initial: int
    n_final: int
    seed: int
    sim_time: float
    injections_applied: int
    advertises: int
    lookups: int
    hits: int
    retries: int
    deadline_misses: int
    failures: int
    joins: int
    revives: int
    refresh_rounds: int
    refresh_lost: int
    refresh_interval_updates: int
    refresh_interval: Optional[float]
    #: Live watcher outcome (``--watch``); None when watchers were off.
    watch: Optional[dict] = None
    watch_violations: List[Any] = field(default_factory=list)
    #: Masking-mode extras (``masking_b is not None``): reads the vote
    #: filter rejected, and reads that returned a wrong value (ground
    #: truth known to the scenario) — the Byzantine safety headline.
    masking_b: Optional[int] = None
    masked_lookups: int = 0
    corrupt_reads: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def watch_clean(self) -> Optional[bool]:
        return None if self.watch is None else not self.watch_violations

    def lines(self) -> list:
        return [
            f"campaign {self.campaign}: n={self.n_initial}->{self.n_final} "
            f"seed={self.seed} sim_time={self.sim_time:.4g}s "
            f"injections={self.injections_applied}",
            f"workload: advertises={self.advertises} lookups={self.lookups} "
            f"hits={self.hits} hit_ratio={self.hit_ratio:.3f}",
            f"policy: retries={self.retries} "
            f"deadline_misses={self.deadline_misses}",
            f"churn: failures={self.failures} joins={self.joins} "
            f"revives={self.revives}",
            f"refresh: rounds={self.refresh_rounds} lost={self.refresh_lost} "
            f"interval_updates={self.refresh_interval_updates}"
            + (f" interval={self.refresh_interval:.4g}s"
               if self.refresh_interval is not None else ""),
        ] + ([] if self.masking_b is None else [
            f"masking: b={self.masking_b} masked={self.masked_lookups} "
            f"corrupt_reads={self.corrupt_reads}",
        ]) + ([] if self.watch is None else [
            f"watch: events={self.watch.get('events', 0)} "
            f"violations={len(self.watch_violations)} "
            + ("CLEAN" if self.watch_clean else "VIOLATED"),
        ])


def run_fault_campaign(
    campaign: "FaultCampaign | str" = "smoke",
    n: int = 100,
    seed: int = 7,
    n_keys: int = 10,
    n_lookups: int = 60,
    refresh: str = "adaptive",          # "adaptive" | "static" | "off"
    watch: bool = False,
    slo_specs: Optional[list] = None,
    masking_b: Optional[int] = None,
) -> CampaignReport:
    """Run the workload-under-faults scenario; returns a report.

    ``watch=True`` attaches every builtin invariant watcher (see
    :mod:`repro.obs.watch`) to the live trace stream; ``slo_specs``
    additionally evaluates SLO specs via a live
    :class:`~repro.obs.slo.SloMonitor`.  The report then carries the
    hub's result (``report.watch`` / ``report.watch_violations``).

    ``masking_b`` switches the deployment to masking quorums: lookups
    run a :class:`~repro.core.masking.MaskingStrategy` over RANDOM
    (every probe reply needs ``b + 1`` corroborating votes) and both
    quorum sides are sized per the hypergeometric masking bound — the
    defended configuration for campaigns with Byzantine behaviors.
    """
    if isinstance(campaign, str):
        campaign = load_campaign(campaign)
    if refresh not in ("adaptive", "static", "off"):
        raise ValueError("refresh must be adaptive, static, or off")
    duration = campaign.duration + SETTLE

    net = SimNetwork(NetworkConfig(n=n, avg_degree=AVG_DEGREE, seed=seed))
    hub = None
    if watch or slo_specs:
        from repro.obs.watch import attach_watchers, builtin_watchers
        watchers = builtin_watchers(n=net.n_alive) if watch else []
        hub = attach_watchers(net, watchers=watchers, slo_specs=slo_specs)
    if masking_b is not None:
        from repro.analysis.intersection import masking_quorum_size
        from repro.core.masking import MaskingStrategy
        size = masking_quorum_size(n, EPSILON, masking_b)
        # Masking quorums outgrow the paper's 2*sqrt(n) partial views;
        # widen the membership view so quorums are not silently capped.
        view = max(size, int(round(2.0 * math.sqrt(n))))
        membership = RandomMembership(net, view_size=view)
        advertise = RandomStrategy(membership).set_policy(POLICY)
        lookup = MaskingStrategy(
            RandomStrategy(membership), masking_b).set_policy(POLICY)
    else:
        size = max(1, int(round(math.sqrt(n * math.log(1.0 / EPSILON)))))
        membership = RandomMembership(net)
        advertise = RandomStrategy(membership).set_policy(POLICY)
        lookup = UniquePathStrategy().set_policy(POLICY)
    biquorum = ProbabilisticBiquorum(
        net, advertise=advertise, lookup=lookup,
        advertise_size=size, lookup_size=size,
        adjust_to_network_size=False)
    service = LocationService(biquorum, enable_caching=True)

    daemon: Optional[RefreshDaemon] = None
    if refresh != "off":
        daemon = RefreshDaemon(
            service, interval=REFRESH_INTERVAL,
            epsilon=EPSILON, min_intersection=MIN_INTERSECTION,
            adaptive=(refresh == "adaptive"))

    wrng = net.rngs.stream("workload")
    keys = [f"key-{i}" for i in range(n_keys)]
    advertises = 0
    for key in keys:
        origin = net.random_alive_node(wrng)
        service.advertise(origin, key, f"value-of-{key}")
        advertises += 1

    runner = CampaignRunner(net, campaign,
                            memberships=(membership,)).start()

    start = net.now
    step = duration / max(1, n_lookups)
    lookups = hits = masked = corrupt = 0
    for i in range(n_lookups):
        net.run_until(start + i * step)
        looker = net.random_alive_node(wrng)
        key = wrng.choice(keys)
        receipt = service.lookup(looker, key)
        lookups += 1
        if receipt.found:
            hits += 1
            if receipt.value != f"value-of-{key}":
                corrupt += 1
        elif receipt.access is not None and getattr(
                receipt.access, "masked", False):
            masked += 1
    net.run_until(start + duration)

    runner.stop()
    if daemon is not None:
        daemon.stop()
    membership.stop()
    watch_result = None
    watch_violations: List[Any] = []
    if hub is not None:
        hub.finish()
        hub.detach()
        watch_result = hub.result()
        watch_violations = list(hub.violations)

    metrics = net.metrics
    return CampaignReport(
        campaign=campaign.name,
        n_initial=n,
        n_final=net.n_alive,
        seed=seed,
        sim_time=net.now,
        injections_applied=runner.injections_applied,
        advertises=advertises,
        lookups=lookups,
        hits=hits,
        retries=metrics.counter_value("access.retries"),
        deadline_misses=metrics.counter_value("access.deadline_misses"),
        failures=metrics.counter_value("churn.failures"),
        joins=metrics.counter_value("churn.joins"),
        revives=metrics.counter_value("churn.revives"),
        refresh_rounds=daemon.stats.rounds if daemon else 0,
        refresh_lost=daemon.stats.lost if daemon else 0,
        refresh_interval_updates=(daemon.stats.interval_updates
                                  if daemon else 0),
        refresh_interval=daemon.interval if daemon else None,
        watch=watch_result,
        watch_violations=watch_violations,
        masking_b=masking_b,
        masked_lookups=masked,
        corrupt_reads=corrupt,
    )


@dataclass
class KVCampaignReport:
    """A kv workload run under a fault campaign, with its history check."""

    campaign: str
    n_initial: int
    n_final: int
    seed: int
    sim_time: float
    injections_applied: int
    stats: Any                      # KVRunStats from the workload engine
    failures: int
    joins: int
    revives: int
    lease_reclaimed: int            # lazily dropped expired entries
    lease_ttl: float                # store's TTL at campaign end
    masking_b: Optional[int] = None
    watch: Optional[dict] = None
    watch_violations: List[Any] = field(default_factory=list)

    @property
    def consistency(self) -> Any:
        return self.stats.report

    @property
    def clean(self) -> bool:
        return self.consistency.clean

    @property
    def watch_clean(self) -> Optional[bool]:
        return None if self.watch is None else not self.watch_violations

    def lines(self) -> list:
        out = [
            f"campaign {self.campaign}: n={self.n_initial}->{self.n_final} "
            f"seed={self.seed} sim_time={self.sim_time:.4g}s "
            f"injections={self.injections_applied}",
            f"kv workload: ops={self.stats.ops} reads={self.stats.reads} "
            f"writes={self.stats.writes} "
            f"cas={self.stats.cas_successes}/{self.stats.cas_attempts}",
            f"service: p50={self.stats.p50:.4g}s p99={self.stats.p99:.4g}s "
            f"availability={self.stats.availability:.3f} "
            f"stale_fraction={self.stats.stale_fraction:.4f}",
            f"leases: ttl={self.lease_ttl:.4g}s "
            f"reclaimed={self.lease_reclaimed}",
            f"churn: failures={self.failures} joins={self.joins} "
            f"revives={self.revives}",
        ]
        out.extend(self.consistency.lines())
        if self.masking_b is not None:
            out.append(f"masking: b={self.masking_b}")
        if self.watch is not None:
            out.append(
                f"watch: events={self.watch.get('events', 0)} "
                f"violations={len(self.watch_violations)} "
                + ("CLEAN" if self.watch_clean else "VIOLATED"))
        return out


def run_kv_fault_campaign(
    campaign: "FaultCampaign | str" = "smoke",
    n: int = 100,
    seed: int = 7,
    n_keys: int = 10,
    n_ops: int = 200,
    lease_ttl: Optional[float] = None,
    policy: Optional[AccessPolicy] = POLICY,
    watch: bool = False,
    slo_specs: Optional[list] = None,
    masking_b: Optional[int] = None,
) -> KVCampaignReport:
    """Drive the quorum kv store through a fault campaign.

    The open-loop workload engine spreads ``n_ops`` over the campaign's
    duration while the :class:`CampaignRunner` injects faults; the
    store's :class:`~repro.services.consistency.KVHistoryChecker`
    verifies every completed op against the per-key sequential spec.
    ``lease_ttl=None`` runs the store in adaptive mode — the TTL is
    re-derived from the committed churn counters before every store,
    so lease windows shrink as the campaign turns up the churn.
    """
    from repro.services.consistency import KVHistoryChecker
    from repro.services.kvstore import QuorumKVStore
    from repro.experiments.workload import (
        WorkloadSpec,
        run_workload_sequential,
    )

    if isinstance(campaign, str):
        campaign = load_campaign(campaign)
    duration = campaign.duration + SETTLE

    net = SimNetwork(NetworkConfig(n=n, avg_degree=AVG_DEGREE, seed=seed))
    hub = None
    if watch or slo_specs:
        from repro.obs.watch import attach_watchers, builtin_watchers
        # The quorum-intersection watcher's hit floor assumes stored
        # entries answer forever; timed leases expire them on purpose,
        # so that invariant does not apply to the kv workload.
        watchers = (builtin_watchers(
            n=net.n_alive,
            names=["monotonicity", "conservation", "no-fabricated-value"])
            if watch else [])
        hub = attach_watchers(net, watchers=watchers, slo_specs=slo_specs)
    if masking_b is not None:
        from repro.analysis.intersection import masking_quorum_size
        from repro.core.masking import MaskingStrategy
        size = masking_quorum_size(n, EPSILON, masking_b)
        view = max(size, int(round(2.0 * math.sqrt(n))))
        membership = RandomMembership(net, view_size=view)
        advertise = RandomStrategy(membership).set_policy(policy)
        lookup = MaskingStrategy(
            RandomStrategy(membership), masking_b).set_policy(policy)
    else:
        size = max(1, int(round(math.sqrt(n * math.log(1.0 / EPSILON)))))
        membership = RandomMembership(net)
        advertise = RandomStrategy(membership).set_policy(policy)
        lookup = RandomStrategy(membership).set_policy(policy)
    biquorum = ProbabilisticBiquorum(
        net, advertise=advertise, lookup=lookup,
        advertise_size=size, lookup_size=size,
        adjust_to_network_size=False)
    store = QuorumKVStore(
        biquorum, lease_ttl=lease_ttl, min_survival=MIN_SURVIVAL,
        adaptive=(lease_ttl is None), checker=KVHistoryChecker())

    runner = CampaignRunner(net, campaign,
                            memberships=(membership,)).start()

    spec = WorkloadSpec(
        ops=n_ops, n_keys=n_keys, read_fraction=READ_FRACTION,
        cas_fraction=CAS_FRACTION, zipf_s=ZIPF_S,
        arrival_rate=max(n_ops / duration, 1e-9), seed=seed)
    start = net.now
    stats = run_workload_sequential(store, spec)
    net.run_until(start + duration)

    runner.stop()
    membership.stop()
    watch_result = None
    watch_violations: List[Any] = []
    if hub is not None:
        hub.finish()
        hub.detach()
        watch_result = hub.result()
        watch_violations = list(hub.violations)

    metrics = net.metrics
    return KVCampaignReport(
        campaign=campaign.name,
        n_initial=n,
        n_final=net.n_alive,
        seed=seed,
        sim_time=net.now,
        injections_applied=runner.injections_applied,
        stats=stats,
        failures=metrics.counter_value("churn.failures"),
        joins=metrics.counter_value("churn.joins"),
        revives=metrics.counter_value("churn.revives"),
        lease_reclaimed=metrics.counter_value("kv.lease.reclaimed"),
        lease_ttl=store.current_ttl(),
        masking_b=masking_b,
        watch=watch_result,
        watch_violations=watch_violations,
    )
