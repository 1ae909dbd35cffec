"""The seven benchmark workloads.

Each workload is three functions over a context dict:

* ``prepare(seed, scale)`` — build the deployment and inputs (untimed);
* ``run(ctx)`` — the timed pass, wall-clocked as a whole by the harness;
* ``finish(ctx, raw)`` — turn the pass's outputs into the simulated
  statistics, the output checks and the digest input (untimed), plus a
  ``layer`` dict of public counters only this workload can read.

Where the library owns construction (``run_kv_fault_campaign``,
``run_replicated``) the deployment build is inside the timed pass; the
README says so per workload.  ``scale`` multiplies the op counts: 1.0
for a measured pass, 0.1 for the warm-up, 0.25 under ``--smoke``.

Sizes give a pass of 0.7 to 0.9 seconds on the reference box, so a run
fits five instances (child processes, each with its own derived seed)
of two or three passes each inside the driver's time cap.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, NamedTuple

from repro.analysis.intersection import symmetric_quorum_size
from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.strategies import (
    AccessPolicy,
    FloodingStrategy,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.experiments.common import (
    make_membership,
    run_scenario,
    scenario_config,
)
from repro.experiments.montecarlo import run_replicated
from repro.experiments.workload import (
    KVPointConfig,
    WorkloadSpec,
    run_workload_batched,
    run_workload_sequential,
)
from repro.faults.scenario import run_kv_fault_campaign
from repro.membership.service import RandomMembership
from repro.services.consistency import KVHistoryChecker
from repro.services.kvstore import QuorumKVStore
from repro.services.location import LocationService
from repro.simnet.network import NetworkConfig, SimNetwork
from repro.stack import AdhocStack, PacketQuorumNetwork, StackConfig

from metrics import latency_summary, tail_percentile


class Workload(NamedTuple):
    name: str
    why: str
    prepare: Callable[[int, float], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Any]
    finish: Callable[[Dict[str, Any], Any], Dict[str, Any]]
    #: Scale of the untimed warm-up pass that ends set-up.
    warmup_scale: float = 0.1


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def _kv_stats(stats: Any) -> Dict[str, Any]:
    """Digest fields of a :class:`KVRunStats`."""
    return {
        "ops": stats.ops, "reads": stats.reads, "writes": stats.writes,
        "cas": [stats.cas_successes, stats.cas_attempts],
        "found": stats.found_reads, "missed": stats.missed_reads,
        "stale_or_missed": stats.stale_or_missed,
        "p50": stats.p50, "p99": stats.p99, "p999": stats.p999,
        "violations": stats.report.total_violations,
    }


def _kv_sim(stats: Any, failed_puts: int) -> Dict[str, Any]:
    """Simulated statistics shared by the three kv-shaped workloads."""
    eligible = stats.eligible_reads
    latency = {"samples": stats.ops, "p50": stats.p50}
    if tail_percentile(stats.ops) == 99.0:
        latency.update(tail=stats.p99, tail_pct=99.0)
    return {
        "ops": stats.ops,
        "failed": (stats.missed_reads + failed_puts
                   + stats.cas_attempts - stats.cas_successes),
        "hit": (stats.found_reads, eligible),
        "stale": (stats.stale_or_missed, eligible),
        "latency": latency,
        "violations": ([] if stats.report.clean
                       else ["consistency: " + "; ".join(stats.report.lines())]),
        "stats": _kv_stats(stats),
    }


# -- 1, 2: the live kv service -------------------------------------------------

KV_N = 400


def _kv_live(ops: int, read_fraction: float, cas_fraction: float,
             lease_ttl: float):
    def prepare(seed: int, scale: float) -> Dict[str, Any]:
        net = SimNetwork(NetworkConfig(n=KV_N, avg_degree=10.0, seed=seed))
        size = symmetric_quorum_size(KV_N, 0.05)
        membership = RandomMembership(
            net, view_size=max(size, int(round(2.0 * math.sqrt(KV_N)))))
        biquorum = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=RandomStrategy(membership), advertise_size=size,
            lookup_size=size, adjust_to_network_size=False)
        # The lease scales with the stream so that leases expire inside a
        # warm-up or smoke pass the way they do inside a full one.
        store = QuorumKVStore(biquorum, lease_ttl=lease_ttl * scale,
                              checker=KVHistoryChecker())
        spec = WorkloadSpec(
            ops=_scaled(ops, scale, 20), n_keys=64,
            read_fraction=read_fraction, cas_fraction=cas_fraction,
            zipf_s=0.99, arrival_rate=0.25, seed=seed)
        return {"net": net, "membership": membership, "store": store,
                "spec": spec}

    def run(ctx: Dict[str, Any]) -> Any:
        return run_workload_sequential(ctx["store"], ctx["spec"])

    def finish(ctx: Dict[str, Any], stats: Any) -> Dict[str, Any]:
        ctx["membership"].stop()
        net = ctx["net"]
        metrics = net.metrics
        sim = _kv_sim(stats, metrics.counter_value("kv.put.count")
                      - metrics.counter_value("kv.put.ok"))
        sim["latency"] = latency_summary(
            [value for op in ("get", "put", "cas")
             for value in metrics.histogram(f"kv.{op}.latency").values])
        sim["msgs"] = net.counters["network"] + net.counters["routing"]
        sim["stats"]["msgs"] = [net.counters["network"],
                                net.counters["routing"]]
        return sim

    return prepare, run, finish


# -- 3: the network-free kernel --------------------------------------------------

KERNEL_OPS = 350_000


def _kernel_prepare(seed: int, scale: float) -> Dict[str, Any]:
    return {
        "spec": WorkloadSpec(ops=_scaled(KERNEL_OPS, scale), n_keys=128,
                             read_fraction=0.92, cas_fraction=0.05,
                             arrival_rate=2000.0, seed=seed),
        "config": KVPointConfig(n=KV_N, churn_rate=0.01, lease_ttl=30.0),
    }


def _kernel_run(ctx: Dict[str, Any]) -> Any:
    return run_workload_batched(ctx["spec"], ctx["config"])


def _kernel_finish(ctx: Dict[str, Any], stats: Any) -> Dict[str, Any]:
    sim = _kv_sim(stats, 0)
    predicted = stats.predicted_stale
    gap = abs(stats.stale_fraction - predicted)
    sim["model_gap"] = gap
    sim["stats"]["predicted_stale"] = predicted
    # 4 sigma binomial on the measured stale fraction + model slack.
    slack = 4.0 * math.sqrt(predicted * (1.0 - predicted)
                            / stats.eligible_reads) + 1e-3
    if gap > slack:
        sim["violations"].append(
            f"stale fraction {stats.stale_fraction:.5f} is {gap:.5f} from "
            f"the lease analysis {predicted:.5f} (allowed {slack:.5f})")
    return sim


# -- access-driven workloads (4, 7) ----------------------------------------------

def _drive_accesses(net: Any, advertise: Any, lookup: Any, qa: int, ql: int,
                    n_keys: int, n_lookups: int, rng: random.Random) -> List:
    """Advertise ``n_keys`` then look them up; every AccessResult kept."""
    stores = []
    results = []
    for _ in range(n_keys):
        holders = set()
        stores.append(holders)
        results.append(advertise.advertise(
            net, net.random_alive_node(rng), holders.add, qa))
    for _ in range(n_lookups):
        holders = stores[rng.randrange(n_keys)]
        results.append(lookup.lookup(
            net, net.random_alive_node(rng),
            lambda node, holders=holders: "x" if node in holders else None,
            ql))
    return results


def _access_sim(results: List) -> Dict[str, Any]:
    lookups = [r for r in results if r.kind == "lookup"]
    hits = sum(1 for r in lookups if r.found and r.success)
    failed = (len(lookups) - hits
              + sum(1 for r in results
                    if r.kind == "advertise" and not r.success))
    messages = sum(r.messages for r in results)
    routing = sum(r.routing_messages for r in results)
    return {
        "ops": len(results),
        "failed": failed,
        "hit": (hits, len(lookups)),
        "latency": latency_summary([r.latency for r in results]),
        "msgs": messages + routing,
        "violations": [],
        "stats": {
            "accesses": len(results), "hits": hits,
            "messages": messages, "routing": routing,
            "quorum": sum(r.quorum_size for r in results),
            "latency": sum(r.latency for r in results),
        },
    }


WALK_N = 200


def _walk_prepare(seed: int, scale: float) -> Dict[str, Any]:
    net = SimNetwork(scenario_config(
        WALK_N, mobility="waypoint", max_speed=10.0, hop_latency=0.05,
        seed=seed))
    membership = make_membership(net, "random")
    return {"net": net, "membership": membership,
            "advertise": RandomStrategy(membership),
            "lookup": UniquePathStrategy(salvation=True),
            "rng": random.Random(seed + 1),
            "keys": _scaled(2, scale), "lookups": _scaled(40, scale, 4)}


def _walk_run(ctx: Dict[str, Any]) -> List:
    net = ctx["net"]
    root = math.sqrt(WALK_N)
    net.run_until(net.now + 1.0)
    return _drive_accesses(net, ctx["advertise"], ctx["lookup"],
                           round(2.0 * root), round(1.15 * root),
                           ctx["keys"], ctx["lookups"], ctx["rng"])


def _walk_finish(ctx: Dict[str, Any], results: List) -> Dict[str, Any]:
    ctx["membership"].stop()
    return _access_sim(results)


class _OracleMembership:
    """Full-membership oracle over the packet-level facade."""

    def __init__(self, net: Any) -> None:
        self.net = net

    def sample_for(self, node_id: int, k: int, rng: random.Random) -> List[int]:
        pool = [v for v in self.net.alive_nodes() if v != node_id]
        return rng.sample(pool, min(k, len(pool)))


PACKET_N = 50


def _connected_stack(seed: int) -> AdhocStack:
    """Re-draw the placement until the radio graph is connected.

    ``SimNetwork`` does this itself (``require_connected``); the packet
    stack does not, and a partitioned deployment spends its pass in AODV
    discovery timeouts — another workload, several times slower.  Links
    count only up to 85% of the ideal range: under the SINR channel a
    link at the edge of the range loses most of its frames, which
    partitions the network just the same.
    """
    for attempt in range(60):
        stack = AdhocStack(StackConfig(n=PACKET_N, avg_degree=10,
                                       seed=seed + 1_000_003 * attempt))
        env = stack.env
        reach = 0.85 * stack.phy_params.ideal_range_m
        seen = {0}
        frontier = [0]
        while frontier:
            near = env.nodes_near(env.position_of(frontier.pop()), reach)
            fresh = [v for v in near if v not in seen]
            seen.update(fresh)
            frontier.extend(fresh)
        if len(seen) == PACKET_N:
            return stack
    raise RuntimeError(f"no connected placement from seed {seed}")


def _packet_prepare(seed: int, scale: float) -> Dict[str, Any]:
    stack = _connected_stack(seed)
    net = PacketQuorumNetwork(stack)
    net.advance(11.0)  # one HELLO round populates the neighbor tables
    return {"net": net, "stack": stack,
            "advertise": RandomStrategy(_OracleMembership(net),
                                        rng=random.Random(seed)),
            "lookup": UniquePathStrategy(rng=random.Random(seed + 1)),
            "rng": random.Random(seed + 2),
            "keys": _scaled(4, scale), "lookups": _scaled(150, scale, 4),
            "events_before": stack.sim.events_executed,
            "frames_before": stack.total_mac_frames(),
            "control_before": stack.total_control_messages()}


def _packet_run(ctx: Dict[str, Any]) -> List:
    root = math.sqrt(PACKET_N)
    return _drive_accesses(ctx["net"], ctx["advertise"], ctx["lookup"],
                           round(2.0 * root), round(1.15 * root),
                           ctx["keys"], ctx["lookups"], ctx["rng"])


def _packet_finish(ctx: Dict[str, Any], results: List) -> Dict[str, Any]:
    sim = _access_sim(results)
    stack = ctx["stack"]
    frames = stack.total_mac_frames() - ctx["frames_before"]
    sim["stats"]["events"] = stack.sim.events_executed - ctx["events_before"]
    sim["stats"]["frames"] = frames
    sim["layer"] = {
        "events_before": ctx["events_before"],
        "stack.mac_frames": frames,
        "stack.control_msgs": (stack.total_control_messages()
                               - ctx["control_before"]),
    }
    return sim


# -- 5: the stress fault campaign ---------------------------------------------------

#: The campaign's default envelope minus its retries.  A retried
#: advertise that reaches nobody reports an empty quorum, the store then
#: books the put as uncommitted although the first attempt's replicas
#: hold it, and the history checker flags the next read of it as
#: fabricated (about one seed in twenty).  A benchmark workload must not
#: fail, and this change may not touch the store, so deadlines stay and
#: retries go until the store's commit accounting is fixed.
FAULTS_POLICY = AccessPolicy(deadline=5.0, max_retries=0)


def _faults_prepare(seed: int, scale: float) -> Dict[str, Any]:
    return {"seed": seed, "n_ops": _scaled(380, scale, 20), "watch": True}


def _faults_run(ctx: Dict[str, Any]) -> Any:
    return run_kv_fault_campaign("stress", n=200, seed=ctx["seed"],
                                 n_ops=ctx["n_ops"], watch=ctx["watch"],
                                 policy=FAULTS_POLICY)


def _faults_finish(ctx: Dict[str, Any], report: Any) -> Dict[str, Any]:
    # Put failures are not in KVRunStats and the campaign owns its
    # network, so they are not counted here.
    sim = _kv_sim(report.stats, 0)
    sim["violations"].extend(f"watcher: {v}" for v in report.watch_violations)
    sim["stats"].update(
        n_final=report.n_final, sim_time=report.sim_time,
        injections=report.injections_applied,
        churn=[report.failures, report.joins, report.revives],
        reclaimed=report.lease_reclaimed,
        events=(report.watch or {}).get("events"))
    sim["layer"] = {
        "faults.injections": report.injections_applied,
        "faults.churn_events": (report.failures + report.joins
                                + report.revives),
    }
    if report.watch is not None:
        sim["layer"]["obs.events"] = report.watch["events"]
        sim["layer"]["obs.violations"] = len(report.watch_violations)
    return sim


# -- 6: the replicated figure point ----------------------------------------------------

REP_N = 500


def _rep_prepare(seed: int, scale: float) -> Dict[str, Any]:
    return {"seed": seed, "reps": _scaled(8, scale, 2), "biquorums": []}


def _rep_run(ctx: Dict[str, Any]) -> Any:
    root = math.sqrt(REP_N)
    qa, ql = round(1.5 * root), round(1.15 * root)
    biquorums = ctx["biquorums"]

    def replica(net: SimNetwork, replica_seed: int) -> Any:
        biquorum = ProbabilisticBiquorum(
            net, advertise=FloodingStrategy(),
            lookup=RandomStrategy(make_membership(net, "random")),
            advertise_size=qa, lookup_size=ql, adjust_to_network_size=False)
        biquorums.append(biquorum)
        return run_scenario(net, biquorum.advertise_strategy,
                            biquorum.lookup_strategy, advertise_size=qa,
                            lookup_size=ql, n_keys=4, n_lookups=100,
                            seed=replica_seed,
                            service=LocationService(biquorum))

    return run_replicated(scenario_config(REP_N, seed=ctx["seed"]), replica,
                          reps=ctx["reps"], backend="batched",
                          base_seed=ctx["seed"])


def _rep_finish(ctx: Dict[str, Any], outcome: Any) -> Dict[str, Any]:
    merged = outcome.merged
    accesses = [a for b in ctx["biquorums"] for a in b.accesses]
    ops = merged.advertises + merged.lookups
    present = merged.lookups_present
    messages = merged.advertise_messages + merged.lookup_messages_total
    routing = merged.advertise_routing + merged.lookup_routing_total
    # Lemma 5.2 at the sizes the accesses actually reached.
    qa = sum(merged.advertise_quorum_sizes) / len(merged.advertise_quorum_sizes)
    ql = sum(merged.lookup_quorum_sizes) / len(merged.lookup_quorum_sizes)
    miss = 1.0 - merged.intersections / present
    violations = []
    if outcome.faulted or outcome.reps != ctx["reps"]:
        violations.append(f"{outcome.faulted} replicas faulted, "
                          f"{outcome.reps} of {ctx['reps']} completed")
    return {
        "ops": ops,
        "failed": (present - merged.hits
                   + sum(1 for a in accesses
                         if a.kind == "advertise" and not a.success)),
        "hit": (merged.hits, present),
        "latency": latency_summary([a.latency for a in accesses]),
        "msgs": messages + routing,
        "model_gap": max(0.0, miss - math.exp(-qa * ql / REP_N)),
        "violations": violations,
        "stats": {
            "replicas": outcome.reps, "ops": ops, "hits": merged.hits,
            "intersections": merged.intersections,
            "reply_drops": merged.reply_drops,
            "messages": messages, "routing": routing,
            "latency": [merged.advertise_latency_total,
                        merged.lookup_latency_total],
            "quorum": [sum(merged.advertise_quorum_sizes),
                       sum(merged.lookup_quorum_sizes)],
        },
    }


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "kv_live",
        "read-mostly kv ops on the live network; route/BFS caches stay "
        "warm, routing and hop forwarding dominate",
        *_kv_live(ops=550, read_fraction=0.85, cas_fraction=0.1,
                  lease_ttl=1100.0)),
    Workload(
        "kv_live_writes",
        "same deployment, 80% put/cas: advertise and cas read-then-write "
        "dominate, so a read-side gain that costs writes shows",
        *_kv_live(ops=350, read_fraction=0.2, cas_fraction=0.5,
                  lease_ttl=700.0)),
    Workload(
        "kv_kernel",
        "network-free batch kernel: only the workload kernel and the batch "
        "checker run, so simnet/access changes predict no move",
        _kernel_prepare, _kernel_run, _kernel_finish,
        # First-touch page faults dominate a kernel pass until the
        # allocator's heap has grown to the size of the full arrays,
        # which a 1/10 pass never asks for.
        warmup_scale=1.0),
    Workload(
        "mobile_walk",
        "waypoint mobility, every hop moves the clock: neighbor-kernel "
        "rebuilds dominate and route discovery is ~1%, mirror of kv_live",
        _walk_prepare, _walk_run, _walk_finish),
    Workload(
        "faults_stress",
        "churn keeps invalidating the CSR snapshot and BFS memo, retries "
        "and deadline misses appear, watchers see every trace event",
        _faults_prepare, _faults_run, _faults_finish),
    Workload(
        "replicated_mixed",
        "the figure-author path and the only flood workload: Monte-Carlo "
        "sharing, batched flood rounds and CSR snapshots",
        _rep_prepare, _rep_run, _rep_finish),
    Workload(
        "packet_stack",
        "the only workload through PHY/MAC/AODV and the only one where "
        "the event kernel executes more than a handful of events",
        _packet_prepare, _packet_run, _packet_finish),
)}
