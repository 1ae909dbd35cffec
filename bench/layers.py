"""Per-layer instrumentation and metrics for the traced pass.

:func:`instrument` wraps each layer's entry points with span-recording
wrappers (and turns the repo's ``PROFILER`` phases into spans of the same
recorder, so there is one tree and one self-time arithmetic);
:func:`layer_metrics` derives the per-layer numbers from the spans, the
values the wrappers saw go by, and public counters.  A metric whose layer
the workload never entered is absent from the result.

``LAYER_METRICS`` is the catalogue: unit, direction, source and the
end-to-end metric + workload each number is expected to move.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, Tuple

from repro.core.access_engine import AccessEngine
from repro.core.strategies import AccessStrategy
from repro.experiments import workload as workload_module
from repro.geometry.csr import CsrCache
from repro.membership.service import RandomMembership
from repro.obs.profile import PROFILER
from repro.services.consistency import KVHistoryChecker
from repro.services.kvstore import QuorumKVStore
from repro.sim.kernel import Simulator
from repro.simnet.network import SimNetwork
from repro.simnet.replication import TopologyRouteOracle
from repro.stack import AdhocStack, PacketQuorumNetwork
import repro.core.strategies as strategies_module

import workloads
from metrics import percentile
from spans import (
    END,
    NAME,
    PARENT,
    START,
    SpanRecorder,
    aggregate,
    durations,
    under,
)

SPAN = "bench span"
PHASE = "PROFILER phase"
COUNT = "public counter"

#: layer -> (what its numbers should move, [(metric, unit, better, source)])
LAYER_METRICS: Dict[str, Tuple[str, List[Tuple[str, str, str, str]]]] = {
    "experiments.workload": (
        "kernel_* -> ops_per_s on kv_kernel only; gen_s -> setup_s on kv "
        "workloads; gen_late rising means the open loop saturates and "
        "sim_p99_s is understated", [
            ("workload.gen_s", "s", "lower", SPAN),
            ("workload.gen_late_p99_s", "s", "lower", SPAN),
            ("workload.drive_self_s", "s", "lower", SPAN),
            ("workload.kernel_s", "s", "lower", SPAN),
            ("workload.kernel_ns_per_op", "ns", "lower", SPAN),
        ]),
    "services.kvstore": (
        "get_* -> ops_per_s on kv_live; put_*/cas_* -> ops_per_s on "
        "kv_live_writes; cas_fail_frac -> fail_frac on kv_live_writes; "
        "none on kv_kernel", [
            ("kvstore.get_calls", "count", "lower", SPAN),
            ("kvstore.put_calls", "count", "lower", SPAN),
            ("kvstore.cas_calls", "count", "lower", SPAN),
            ("kvstore.get_host_p50_us", "us", "lower", SPAN),
            ("kvstore.get_host_p99_us", "us", "lower", SPAN),
            ("kvstore.put_host_p50_us", "us", "lower", SPAN),
            ("kvstore.cas_host_p50_us", "us", "lower", SPAN),
            ("kvstore.self_s", "s", "lower", SPAN),
            ("kvstore.cas_fail_frac", "ratio", "lower", SPAN),
            ("kvstore.leases_reclaimed", "count", "lower", COUNT),
        ]),
    "services.consistency": (
        "check_s -> ops_per_s on kv_kernel (batch check) and weakly "
        "kv_live; violations -> check_fail", [
            ("consistency.check_s", "s", "lower", SPAN),
            ("consistency.violations", "count", "lower", COUNT),
        ]),
    "core.strategies": (
        "lookup_self_s -> ops_per_s on kv_live; advertise_self_s -> "
        "kv_live_writes; msgs_* -> msgs_per_op everywhere; retries and "
        "deadline_misses -> sim_p99_s, fail_frac on faults_stress", [
            ("strategies.advertise_calls", "count", "lower", SPAN),
            ("strategies.lookup_calls", "count", "lower", SPAN),
            ("strategies.advertise_self_s", "s", "lower", SPAN + " + " + PHASE),
            ("strategies.lookup_self_s", "s", "lower", SPAN + " + " + PHASE),
            ("strategies.quorum_size_mean", "nodes", "higher", SPAN),
            ("strategies.msgs_per_access", "msgs", "lower", SPAN),
            ("strategies.routing_msgs_per_access", "msgs", "lower", SPAN),
            ("strategies.useful_frac", "ratio", "higher", SPAN),
            ("strategies.retries", "count", "lower", SPAN),
            ("strategies.deadline_misses", "count", "lower", SPAN),
        ]),
    "simnet.network": (
        "route_*/discover_* -> ops_per_s on kv_live, kv_live_writes, "
        "faults_stress, not mobile_walk or kv_kernel; flood_* -> ops_per_s "
        "on replicated_mixed only", [
            ("simnet.route_calls", "count", "lower", SPAN),
            ("simnet.route_self_s", "s", "lower", SPAN),
            ("simnet.route_hops_mean", "hops", "lower", SPAN),
            ("simnet.route_fail_frac", "ratio", "lower", SPAN),
            ("simnet.discover_calls", "count", "lower", PHASE),
            ("simnet.discover_s", "s", "lower", PHASE),
            ("simnet.flood_calls", "count", "lower", SPAN),
            ("simnet.flood_s", "s", "lower", SPAN),
            ("simnet.flood_covered_mean", "nodes", "higher", SPAN),
            ("simnet.unicast_calls", "count", "lower", SPAN),
            ("simnet.unicast_self_s", "s", "lower", SPAN),
            ("simnet.run_until_s", "s", "lower", SPAN),
            ("simnet.heartbeat_s", "s", "lower", PHASE),
            ("simnet.churn_update_s", "s", "lower", PHASE),
        ]),
    "core.access_engine + geometry.csr": (
        "tree_hit_frac, csr.hit_frac ~1 on kv_live, well below on "
        "faults_stress and mobile_walk; a memo change moves ops_per_s on "
        "the latter two and not on kv_live", [
            ("access_engine.batch_pass_calls", "count", "lower", PHASE),
            ("access_engine.batch_pass_s", "s", "lower", PHASE),
            ("access_engine.tree_hit_frac", "ratio", "higher", COUNT),
            ("csr.hit_frac", "ratio", "higher", COUNT),
            ("csr.builds", "count", "lower", COUNT),
        ]),
    "geometry.kernel + mobility.models": (
        "-> ops_per_s on mobile_walk; no move on static workloads", [
            ("geometry.rebuild_calls", "count", "lower", PHASE),
            ("geometry.rebuild_s", "s", "lower", PHASE),
            ("geometry.rebuild_us_per_node", "us", "lower", PHASE),
            ("mobility.positions_s", "s", "lower", PHASE),
        ]),
    "randomwalk": (
        "drop_frac/salvations -> hit_ratio on mobile_walk, packet_stack; "
        "steps_per_host_s -> ops_per_s there", [
            ("walker.walks", "count", "lower", SPAN),
            ("walker.steps", "count", "lower", SPAN),
            ("walker.steps_per_host_s", "1/s", "higher", SPAN),
            ("walker.salvations", "count", "lower", SPAN),
            ("reply.deliver_s", "s", "lower", PHASE),
            ("reply.drop_frac", "ratio", "lower", SPAN),
        ]),
    "membership.service": (
        "build_s -> setup_s on every graph-level workload; refresh_s -> "
        "ops_per_s on the long-running kv workloads", [
            ("membership.build_s", "s", "lower", SPAN),
            ("membership.refresh_s", "s", "lower", SPAN),
            ("membership.sample_calls", "count", "lower", SPAN),
        ]),
    "sim.kernel": (
        "-> ops_per_s on packet_stack only", [
            ("sim.events", "count", "lower", COUNT),
            ("sim.events_per_host_s", "1/s", "higher", SPAN),
            ("sim.run_self_s", "s", "lower", SPAN),
        ]),
    "stack": (
        "run_s -> ops_per_s, frames_per_access -> msgs_per_op on "
        "packet_stack", [
            ("stack.run_s", "s", "lower", SPAN),
            ("stack.adapter_self_s", "s", "lower", SPAN),
            ("stack.mac_frames", "count", "lower", COUNT),
            ("stack.control_msgs", "count", "lower", COUNT),
            ("stack.frames_per_access", "frames", "lower", COUNT),
        ]),
    "faults.campaign": (
        "explain csr.builds and strategies.retries on faults_stress", [
            ("faults.injections", "count", "lower", COUNT),
            ("faults.churn_events", "count", "lower", COUNT),
        ]),
    "obs.trace / obs.watch": (
        "watch_overhead_frac -> ops_per_s on faults_stress; violations "
        "-> check_fail", [
            ("obs.events", "count", "lower", COUNT),
            ("obs.events_per_op", "count", "lower", COUNT),
            ("obs.watch_overhead_frac", "ratio", "lower",
             "extra untraced pass with watch=False"),
            ("obs.violations", "count", "lower", COUNT),
        ]),
    "experiments.montecarlo": (
        "-> ops_per_s on replicated_mixed", [
            ("montecarlo.replicas", "count", "lower", PHASE),
            ("montecarlo.replica_s_mean", "s", "lower", PHASE),
            ("montecarlo.build_s", "s", "lower", PHASE),
        ]),
    "harness": (
        "read before believing any host number", [
            ("bench.trace_overhead_frac", "ratio", "lower", "harness"),
            ("bench.cpu_frac", "ratio", "higher", "harness"),
            ("bench.pass_spread_frac", "ratio", "lower", "harness"),
            ("bench.unattributed_frac", "ratio", "lower", SPAN),
        ]),
}

#: metric -> (unit, better, source, layer)
LAYER_INDEX: Dict[str, Tuple[str, str, str, str]] = {
    name: (unit, better, source, layer)
    for layer, (_, rows) in LAYER_METRICS.items()
    for name, unit, better, source in rows
}

#: Span name -> the layer its self time is booked to.
SPAN_LAYER = {
    "workload.generate": "experiments.workload",
    "workload.drive": "experiments.workload",
    "workload.kernel": "experiments.workload",
    "kvstore.get": "services.kvstore",
    "kvstore.put": "services.kvstore",
    "kvstore.cas": "services.kvstore",
    "consistency.record": "services.consistency",
    "consistency.check_batch": "services.consistency",
    "strategies.advertise": "core.strategies",
    "strategies.lookup": "core.strategies",
    "access.advertise": "core.strategies",
    "access.lookup": "core.strategies",
    "simnet.route": "simnet.network",
    "simnet.discover_path": "simnet.network",
    "routing.discover": "simnet.network",
    "simnet.flood": "simnet.network",
    "simnet.unicast": "simnet.network",
    "simnet.run_until": "simnet.network",
    "neighbor.heartbeat": "simnet.network",
    "churn.update": "simnet.network",
    "access.batch_pass": "core.access_engine + geometry.csr",
    "neighbor.rebuild": "geometry.kernel + mobility.models",
    "kernel.batch_pass": "geometry.kernel + mobility.models",
    "kernel.batch_pass_replicas": "geometry.kernel + mobility.models",
    "mobility.positions": "geometry.kernel + mobility.models",
    "walker.walk": "randomwalk",
    "reply.deliver": "randomwalk",
    "membership.build": "membership.service",
    "membership.refresh": "membership.service",
    "membership.sample": "membership.service",
    "sim.run": "sim.kernel",
    "stack.run": "stack",
    "stack.adapter": "stack",
    "replication.build": "experiments.montecarlo",
    "replication.replica": "experiments.montecarlo",
    "scenario.run": "experiments.montecarlo",
    "bench.pass": "harness",
    "bench.build": "harness",
}


class Tally:
    """What the wrappers saw go by during the traced pass."""

    def __init__(self) -> None:
        self.nets: Dict[int, Any] = {}
        self.sims: Dict[int, Any] = {}
        self.engines: Dict[int, Any] = {}
        self.tree_memos: Dict[int, Any] = {}  # shared states, route oracles
        self.csr_caches: Dict[int, Any] = {}
        self.accesses: List[Any] = []
        self.kv: List[Tuple[str, bool]] = []
        self.kv_issued: List[float] = []
        self.routes = self.routes_ok = self.route_hops = 0
        self.floods: List[int] = []
        self.walks: List[Any] = []
        self.operations: Any = None
        self.drive_start: Any = None


def instrument(recorder: SpanRecorder, tally: Tally) -> None:
    """Wrap every layer's entry points; ``recorder.restore()`` undoes it."""
    wrap = recorder.wrap

    def remember(seen: Dict[int, Any]) -> Any:
        def hook(obj: Any, *args: Any, **kwargs: Any) -> None:
            seen[id(obj)] = obj
        return hook

    see_net = remember(tally.nets)

    def kv_before(store: Any, *args: Any, **kwargs: Any) -> None:
        tally.kv_issued.append(store.net.now)

    def kv_after(result: Any, *args: Any, **kwargs: Any) -> None:
        tally.kv.append((result.kind, result.ok))

    for op in ("get", "put", "cas"):
        wrap(QuorumKVStore, op, f"kvstore.{op}", new_op=True,
             before=kv_before, after=kv_after)
    for record in ("record_get", "record_put", "record_cas"):
        wrap(KVHistoryChecker, record, "consistency.record")
    wrap(workload_module, "check_kv_batch", "consistency.check_batch")

    def ops_after(operations: Any, *args: Any, **kwargs: Any) -> None:
        tally.operations = operations

    def drive_before(store: Any, *args: Any, **kwargs: Any) -> None:
        tally.drive_start = store.net.now
        see_net(store.net)

    wrap(workload_module, "generate_operations", "workload.generate",
         after=ops_after)
    # The campaign imports the driver from its module at call time; the
    # kv workloads call it through this benchmark's own import.
    for call_site in (workload_module, workloads):
        wrap(call_site, "run_workload_sequential", "workload.drive",
             before=drive_before)

    def access_after(result: Any, *args: Any, **kwargs: Any) -> None:
        tally.accesses.append(result)

    for kind in ("advertise", "lookup"):
        wrap(AccessStrategy, kind, f"strategies.{kind}", new_op=True,
             after=access_after)

    def route_after(result: Any, *args: Any, **kwargs: Any) -> None:
        # Counted, not kept: tens of thousands of retained results would
        # make the collector part of the traced pass.
        tally.routes += 1
        if result.success:
            tally.routes_ok += 1
            tally.route_hops += result.hops

    def flood_after(outcome: Any, *args: Any, **kwargs: Any) -> None:
        tally.floods.append(outcome.coverage)

    wrap(SimNetwork, "route", "simnet.route", after=route_after)
    wrap(SimNetwork, "discover_path", "simnet.discover_path")
    wrap(SimNetwork, "flood", "simnet.flood", before=see_net,
         after=flood_after)
    wrap(SimNetwork, "one_hop_unicast", "simnet.unicast")
    wrap(SimNetwork, "run_until", "simnet.run_until", before=see_net)

    see_sim = remember(tally.sims)
    # The packet-level facade steps the event kernel one event at a time.
    wrap(Simulator, "run", "sim.run", before=see_sim)
    wrap(Simulator, "step", "sim.run", before=see_sim)
    wrap(AdhocStack, "run", "stack.run")
    for entry in ("route", "one_hop_unicast", "one_hop_broadcast", "flood"):
        wrap(PacketQuorumNetwork, entry, "stack.adapter")

    def see_shared(engine: Any, net: Any, state: Any) -> None:
        tally.tree_memos[id(state)] = state

    # Hooks only: the spans around these calls already time them.
    wrap(AccessEngine, "tree", None, before=remember(tally.engines))
    wrap(AccessEngine, "adopt_shared", None, before=see_shared)
    wrap(TopologyRouteOracle, "tree", None,
         before=remember(tally.tree_memos))
    for snapshot in ("true_snapshot", "known_snapshot"):
        wrap(CsrCache, snapshot, None, before=remember(tally.csr_caches))

    def walk_after(walk: Any, *args: Any, **kwargs: Any) -> None:
        tally.walks.append(walk)

    # ``random_walk`` and ``run_workload_batched`` are bound by
    # ``from ... import`` where they are called, so the calling module's
    # global is what a wrapper has to replace.
    wrap(strategies_module, "random_walk", "walker.walk", after=walk_after)
    wrap(workloads, "run_workload_batched", "workload.kernel")

    wrap(RandomMembership, "__init__", "membership.build")
    wrap(RandomMembership, "refresh", "membership.refresh")
    wrap(RandomMembership, "sample_for", "membership.sample")

    recorder.adopt_profiler(PROFILER)


def _frac(num: float, den: float) -> Any:
    return num / den if den else None


def layer_metrics(all_spans: List[list], tally: Tally,
                  sim: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (absent where not produced).

    Everything is taken from the timed pass (the ``bench.pass`` tree)
    except ``membership.build_s``, which a bench-built deployment spends
    in ``bench.build``.
    """
    spans = under(all_spans, "bench.pass")
    agg = aggregate(spans)
    extra = sim.get("layer", {})
    out: Dict[str, Any] = {}

    def calls(name: str) -> int:
        return int(agg[name]["calls"]) if name in agg else 0

    def self_s(*names: str) -> Any:
        present = [agg[n]["self"] for n in names if n in agg]
        return sum(present) if present else None

    def total_s(*names: str) -> Any:
        present = [agg[n]["total"] for n in names if n in agg]
        return sum(present) if present else None

    # experiments.workload
    out["workload.gen_s"] = total_s("workload.generate")
    out["workload.drive_self_s"] = self_s("workload.drive")
    out["workload.kernel_s"] = self_s("workload.kernel")
    if "workload.kernel" in agg:
        out["workload.kernel_ns_per_op"] = (
            1e9 * agg["workload.kernel"]["self"] / sim["ops"])
    if tally.operations is not None and tally.kv_issued:
        due = tally.operations.times[:len(tally.kv_issued)]
        late = sorted(max(0.0, issued - tally.drive_start - float(t))
                      for issued, t in zip(tally.kv_issued, due))
        out["workload.gen_late_p99_s"] = percentile(late, 99.0)

    # services.kvstore / services.consistency
    if tally.kv:
        for op in ("get", "put", "cas"):
            out[f"kvstore.{op}_calls"] = calls(f"kvstore.{op}")
            host = sorted(durations(spans, f"kvstore.{op}"))
            if host:
                out[f"kvstore.{op}_host_p50_us"] = 1e6 * percentile(host, 50.0)
                if op == "get":
                    out["kvstore.get_host_p99_us"] = (
                        1e6 * percentile(host, 99.0))
        out["kvstore.self_s"] = self_s("kvstore.get", "kvstore.put",
                                       "kvstore.cas")
        cas = [ok for kind, ok in tally.kv if kind == "cas"]
        out["kvstore.cas_fail_frac"] = _frac(cas.count(False), len(cas))
        out["kvstore.leases_reclaimed"] = sum(
            net.metrics.counter_value("kv.lease.reclaimed")
            for net in tally.nets.values())
    out["consistency.check_s"] = total_s("consistency.record",
                                         "consistency.check_batch")
    if out["consistency.check_s"] is not None:
        out["consistency.violations"] = sim["stats"].get("violations", 0)

    # core.strategies
    accesses = tally.accesses
    if accesses:
        lookups = [a for a in accesses if a.kind == "lookup"]
        out["strategies.advertise_calls"] = len(accesses) - len(lookups)
        out["strategies.lookup_calls"] = len(lookups)
        out["strategies.advertise_self_s"] = self_s("strategies.advertise",
                                                    "access.advertise")
        out["strategies.lookup_self_s"] = self_s("strategies.lookup",
                                                 "access.lookup")
        count = len(accesses)
        out["strategies.quorum_size_mean"] = (
            sum(a.quorum_size for a in accesses) / count)
        out["strategies.msgs_per_access"] = (
            sum(a.messages for a in accesses) / count)
        out["strategies.routing_msgs_per_access"] = (
            sum(a.routing_messages for a in accesses) / count)
        out["strategies.useful_frac"] = _frac(
            sum(1 for a in lookups if a.found), len(lookups))
        out["strategies.retries"] = sum(a.attempts - 1 for a in accesses)
        out["strategies.deadline_misses"] = sum(
            1 for a in accesses if a.deadline_missed)
        found = [a for a in lookups if a.found]
        out["reply.drop_frac"] = _frac(
            sum(1 for a in found if a.reply_delivered is False), len(found))

    # simnet.network
    if tally.routes:
        out["simnet.route_calls"] = tally.routes
        out["simnet.route_self_s"] = self_s("simnet.route")
        out["simnet.route_hops_mean"] = _frac(tally.route_hops,
                                              tally.routes_ok)
        out["simnet.route_fail_frac"] = 1.0 - tally.routes_ok / tally.routes
    discovers = calls("routing.discover") + calls("simnet.discover_path")
    if discovers:
        out["simnet.discover_calls"] = discovers
        out["simnet.discover_s"] = self_s("routing.discover",
                                          "simnet.discover_path")
    if tally.floods:
        out["simnet.flood_calls"] = len(tally.floods)
        out["simnet.flood_s"] = self_s("simnet.flood")
        out["simnet.flood_covered_mean"] = (
            sum(tally.floods) / len(tally.floods))
    if calls("simnet.unicast"):
        out["simnet.unicast_calls"] = calls("simnet.unicast")
        out["simnet.unicast_self_s"] = self_s("simnet.unicast")
    out["simnet.run_until_s"] = self_s("simnet.run_until")
    out["simnet.heartbeat_s"] = self_s("neighbor.heartbeat")
    out["simnet.churn_update_s"] = self_s("churn.update")

    # core.access_engine + geometry.csr
    if calls("access.batch_pass"):
        out["access_engine.batch_pass_calls"] = calls("access.batch_pass")
        out["access_engine.batch_pass_s"] = self_s("access.batch_pass")
    engines = tally.engines.values()
    memos = tally.tree_memos.values()
    tree_hits = (sum(e.tree_hits for e in engines)
                 + sum(m.hits for m in memos))
    tree_misses = (sum(e.tree_misses for e in engines)
                   + sum(m.misses for m in memos))
    out["access_engine.tree_hit_frac"] = _frac(tree_hits,
                                               tree_hits + tree_misses)
    if tally.csr_caches:
        hits = sum(c.hits for c in tally.csr_caches.values())
        misses = sum(c.misses for c in tally.csr_caches.values())
        out["csr.hit_frac"] = hits / (hits + misses)
        out["csr.builds"] = misses

    # geometry.kernel + mobility.models
    rebuilds = calls("neighbor.rebuild")
    if rebuilds:
        rebuild_s = self_s("neighbor.rebuild", "kernel.batch_pass",
                           "kernel.batch_pass_replicas")
        out["geometry.rebuild_calls"] = rebuilds
        out["geometry.rebuild_s"] = rebuild_s
        nodes = median(net.n_alive for net in tally.nets.values()) \
            if tally.nets else None
        if nodes:
            out["geometry.rebuild_us_per_node"] = (
                1e6 * rebuild_s / rebuilds / nodes)
        out["mobility.positions_s"] = self_s("mobility.positions")

    # randomwalk
    if tally.walks:
        steps = sum(w.steps for w in tally.walks)
        out["walker.walks"] = len(tally.walks)
        out["walker.steps"] = steps
        out["walker.steps_per_host_s"] = steps / agg["walker.walk"]["total"]
        out["walker.salvations"] = sum(w.messages - w.steps
                                       for w in tally.walks)
    out["reply.deliver_s"] = self_s("reply.deliver")

    # membership.service
    builds = durations(all_spans, "membership.build")
    if builds:
        out["membership.build_s"] = sum(builds)
    periodic = [s[END] - s[START] for s in spans
                if s[NAME] == "membership.refresh"
                and spans[s[PARENT]][NAME] != "membership.build"]
    if periodic:
        out["membership.refresh_s"] = sum(periodic)
    if calls("membership.sample"):
        out["membership.sample_calls"] = calls("membership.sample")

    # sim.kernel / stack
    if tally.sims:
        events = (sum(s.events_executed for s in tally.sims.values())
                  - extra.get("events_before", 0))
        out["sim.events"] = events
        out["sim.events_per_host_s"] = events / agg["sim.run"]["total"]
        out["sim.run_self_s"] = self_s("sim.run")
    if "stack.mac_frames" in extra:
        out["stack.run_s"] = agg["sim.run"]["total"]
        out["stack.adapter_self_s"] = self_s("stack.adapter", "stack.run")
        for key in ("stack.mac_frames", "stack.control_msgs"):
            out[key] = extra[key]
        out["stack.frames_per_access"] = extra["stack.mac_frames"] / sim["ops"]

    # faults.campaign / obs / montecarlo
    for key in ("faults.injections", "faults.churn_events", "obs.events",
                "obs.violations", "obs.watch_overhead_frac"):
        if key in extra:
            out[key] = extra[key]
    if "obs.events" in extra:
        out["obs.events_per_op"] = extra["obs.events"] / sim["ops"]
    if "replication.replica" in agg:
        replica = agg["replication.replica"]
        out["montecarlo.replicas"] = int(replica["calls"])
        out["montecarlo.replica_s_mean"] = replica["total"] / replica["calls"]
        out["montecarlo.build_s"] = total_s("replication.build")

    # harness: time no layer span covers
    root = agg["bench.pass"]
    out["bench.unattributed_frac"] = root["self"] / root["total"]
    return {name: value for name, value in out.items() if value is not None}


def self_share(pass_spans: List[list]) -> Dict[str, float]:
    """Share of the timed pass's wall booked to each span name (self)."""
    agg = aggregate(pass_spans)
    wall = agg["bench.pass"]["total"]
    return {name: row["self"] / wall for name, row in
            sorted(agg.items(), key=lambda kv: -kv[1]["self"])}


def layer_share(span_share: Dict[str, float]) -> Dict[str, float]:
    """The same shares summed by layer, largest first."""
    out: Dict[str, float] = {}
    for name, share in span_share.items():
        layer = SPAN_LAYER.get(name, "unmapped")
        out[layer] = out.get(layer, 0.0) + share
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
