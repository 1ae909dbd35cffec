"""Routed sends under random drops, in one step.

On a static topology a routed send that lands before the next
scheduler event is one step even when links drop frames: it draws one
loss per hop from the drops stream in path order, up to the first loss,
which are the per-hop sends' draws, since nothing else runs in the
window.  Twin tests hold it to the per-event code of the declining
engine (``tests/reference``), work counts pin how little per-hop work
and hub delivery is left, and the satellites ride along: typed drop
probabilities, one-member replacement draws, the one BFS behind
``is_connected``.
"""

import collections
import json
import math
import random
from collections import deque

import pytest
from reference import per_event

from repro.core.strategies import FloodingStrategy, RandomStrategy
from repro.experiments.common import make_membership
from repro.faults import run_kv_fault_campaign
from repro.faults.campaign import DropBurst, FaultCampaign, load_campaign
from repro.membership import RandomMembership
from repro.obs.watch import WatcherHub, attach_watchers
from repro.simnet.network import NetworkConfig, SimNetwork

ORIGINS = (4, 11, 4, 30, 19, 4, 11, 30)


def _accesses(net, origins=ORIGINS, size=12):
    """Alternate RANDOM advertises and lookups (lookups route replies)."""
    strategy = RandomStrategy(make_membership(net, "random"))
    stored = set()
    results = []
    for i, origin in enumerate(origins):
        if i % 2 == 0:
            results.append(strategy.advertise(net, origin, stored.add, size))
        else:
            results.append(strategy.lookup(
                net, origin, lambda v: v if v in stored else None, size))
    return results


def _observe(drop_prob, reference, script=_accesses):
    """Every observable of one run, and the batched side's hop runs."""
    net = SimNetwork(NetworkConfig(n=90, seed=5, drop_prob=drop_prob))
    if reference:
        per_event(net)
    net.trace.enable(memory=True)
    hub = attach_watchers(net)
    runs = []
    record_hops = net.trace.record_hops

    def recording(*args, **kwargs):
        runs.append(dict(zip(("t", "latency", "path", "route"), args),
                         **kwargs))
        return record_hops(*args, **kwargs)
    net.trace.record_hops = recording
    results = script(net)
    hub.finish()
    return {
        "results": repr(results),
        "events": net.trace.events(),
        "energy": net.energy.per_node,
        "counters": dict(net.counters),
        "metrics": net.metrics.snapshot(),
        "drops": net._drop_rng.getstate(),
        "hub": hub.result(),
        "now": net.now,
        "routes": dict(net._route_cache),
    }, runs


def _retried_deliveries(events):
    """Sends delivered after a lost hop: a failed hop, then the send's
    ``route ok=True`` with no other route event in between."""
    delivered, failed = 0, False
    for event in events:
        if event.kind == "hop" and not event.fields["ok"]:
            failed = True
        elif event.kind == "route":
            delivered += failed and event.fields["ok"]
            failed = False
    return delivered


class TestLossyTwins:
    @pytest.mark.parametrize("drop_prob", [0.1, 0.5, 1.0])
    def test_batched_send_equals_the_per_hop_sends(self, drop_prob):
        batched, runs = _observe(drop_prob, reference=False)
        twin, twin_runs = _observe(drop_prob, reference=True)
        assert batched == twin
        assert not twin_runs
        lost = [run for run in runs if run.get("lost")]
        assert lost, "no send was batched through a drop"
        assert batched["hub"]["ok"]
        assert batched["metrics"]["net.unicast_failures"] >= len(lost)

    def test_a_send_drops_and_its_retry_delivers(self):
        batched, runs = _observe(0.1, reference=False)
        assert _retried_deliveries(batched["events"]) > 0
        # A lost run of a first attempt carries no route event; the
        # retry's discovery is folded into the next run.
        assert any(run.get("lost") and run.get("route") is None
                   for run in runs)
        assert any(run.get("routing") for run in runs)

    def test_total_loss_fails_every_send_after_one_retry(self):
        batched, runs = _observe(1.0, reference=False)
        routes = [e for e in batched["events"] if e.kind == "route"]
        assert routes and not any(e.fields["ok"] for e in routes)
        hops = [e for e in batched["events"] if e.kind == "hop"]
        assert hops and not any(e.fields["ok"] for e in hops)
        # Each failed send is two lost first hops: the send and its retry.
        assert len(hops) == 2 * len(routes)

    def test_the_flood_ring_still_declines_under_drops(self):
        def flood(net):
            strategy = FloodingStrategy()
            return [strategy.advertise(net, origin, lambda v: None, 12)
                    for origin in (4, 11)]
        batched, _ = _observe(0.3, reference=False, script=flood)
        twin, _ = _observe(0.3, reference=True, script=flood)
        assert batched == twin
        net = SimNetwork(NetworkConfig(n=90, seed=5, drop_prob=0.3))
        assert net.access_engine.flood_ring(net, [4], []) is None


class TestLossyWork:
    def test_pinned_drop_burst_campaign_work(self, monkeypatch):
        # The smoke campaign drops 25% of the frames for 8 s.  The
        # events the hub judges do not move; what is left of per-hop
        # work is 13 unicasts (3 166 when a drop closed the batch
        # window), and the hub takes 4 952 calls (9 574 when each
        # discovery and each per-hop send was its own record).
        calls = collections.Counter()
        unicast = SimNetwork.one_hop_unicast

        def counting_unicast(net, src, dst):
            calls["unicast"] += 1
            return unicast(net, src, dst)
        monkeypatch.setattr(SimNetwork, "one_hop_unicast", counting_unicast)
        attach = WatcherHub.attach

        def counting_attach(hub, trace):
            on_event, on_hops = hub.on_event, hub.on_hops

            def counted_event(event):
                calls["on_event"] += 1
                on_event(event)

            def counted_hops(run):
                calls["on_hops"] += 1
                on_hops(run)
            hub.on_event, hub.on_hops = counted_event, counted_hops
            return attach(hub, trace)
        monkeypatch.setattr(WatcherHub, "attach", counting_attach)
        report = run_kv_fault_campaign("smoke", n=60, seed=7, n_ops=80,
                                       watch=True)
        assert report.watch["ok"]
        assert report.watch["events"] == 14223
        assert [w["events"] for w in report.watch["watchers"]] == [
            14223, 11530, 1676]
        assert dict(calls) == {"unicast": 13, "on_event": 2247,
                               "on_hops": 2705}


class TestDropProbabilities:
    @pytest.mark.parametrize("bad", [1.5, 1.7, -0.2, math.nan])
    def test_network_config_rejects(self, bad):
        with pytest.raises(ValueError, match="drop_prob"):
            NetworkConfig(drop_prob=bad)

    @pytest.mark.parametrize("bad", [1.5, 1.7, -0.2])
    def test_drop_burst_rejects(self, bad, tmp_path):
        with pytest.raises(ValueError, match="drop_prob"):
            DropBurst(at=1.0, duration=2.0, drop_prob=bad)
        spec = {"name": "bad", "injections": [
            {"type": "drop-burst", "at": 1.0, "duration": 2.0,
             "drop_prob": bad}]}
        with pytest.raises(ValueError, match="drop_prob"):
            FaultCampaign.from_dict(spec)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ValueError, match="drop_prob"):
            load_campaign(str(path))

    @pytest.mark.parametrize("bad", [1.5, -0.2, math.nan])
    def test_assignment_on_a_live_network_rejects(self, bad):
        net = SimNetwork(NetworkConfig(n=30, seed=1))
        with pytest.raises(ValueError, match="drop_prob"):
            net.config.drop_prob = bad
        assert net.config.drop_prob == 0.0
        net.config.drop_prob = 0.4
        assert net.config.drop_prob == 0.4

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_the_edges_are_probabilities(self, edge):
        assert NetworkConfig(drop_prob=edge).drop_prob == edge
        assert DropBurst(at=0.0, duration=1.0, drop_prob=edge).drop_prob == edge


class TestReplacementDraw:
    def test_one_member_draw_is_the_sample_draw(self):
        net = SimNetwork(NetworkConfig(n=80, seed=2))
        membership = RandomMembership(net)
        for node in (0, 9, 41):
            view = membership.view(node)
            ours, theirs = random.Random(node), random.Random(node)
            for _ in range(20):
                assert membership.sample_for(node, 1, ours) == theirs.sample(
                    view, 1)
            assert ours.getstate() == theirs.getstate()

    def test_the_view_is_never_handed_out(self):
        net = SimNetwork(NetworkConfig(n=30, seed=2))
        membership = RandomMembership(net, view_size=4)
        view = membership.view(3)
        everyone = membership.sample_for(3, 10, random.Random(0))
        assert everyone == view
        everyone.clear()
        assert membership.view(3) == view
        other = view[0]
        rest = membership.sample(10, random.Random(0), 3, exclude=other)
        assert rest == [v for v in view if v != other]


class TestConnectivity:
    @staticmethod
    def _oracle(net):
        tables = net._neighbor_tables()
        alive = net.alive_nodes()
        seen, queue = {alive[0]}, deque([alive[0]])
        while queue:
            for v in tables.get(queue.popleft(), ()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == len(alive)

    def test_is_connected_agrees_with_a_plain_bfs(self):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=6, seed=4))
        engine = net.access_engine
        rng = random.Random(1)
        verdicts = set()
        for _ in range(40):
            victim = rng.choice(net.alive_nodes())
            net.fail_node(victim, commit=False)
            verdict = net.is_connected()
            assert verdict == self._oracle(net)
            verdicts.add(verdict)
            if not verdict:
                net.revive_node(victim)
        assert verdicts == {True, False}
        assert engine.tree_hits == engine.tree_misses == 0
