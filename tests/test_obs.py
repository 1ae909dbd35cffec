"""Observability layer: event trace, metrics, accounting audit.

The audit is the conservation watcher run on every ``REPRO_AUDIT``
network; its rules are checked here on hand-built access spans and, end
to end, by strategies that lie about their accounting.

Also hosts the regression tests for the accounting bugs this layer was
built to catch: lookup first-hit clobbering, non-sticky reply delivery,
zero latency on direct strategy calls, and adaptation retries burned on
duplicate replacement draws.
"""

import json

import pytest

from repro.core import (
    FloodingStrategy,
    MaskingStrategy,
    PathStrategy,
    RandomOptStrategy,
    RandomSamplingStrategy,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.experiments.common import make_membership, run_scenario
from repro.membership import FullMembership
from repro.obs import (
    AccountingAuditor,
    AuditError,
    ConservationWatcher,
    EventTrace,
    MetricsRegistry,
    TraceEvent,
    WatcherHub,
)
from repro.randomwalk.reply import ReplyResult
from repro.randomwalk.walker import SampleResult
from repro.simnet import NetworkConfig, SimNetwork


def make_net(n=100, seed=0, **kw):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed, **kw))


def probe_for(targets, value="v"):
    hit_set = set(targets)

    def probe(node):
        return value if node in hit_set else None

    return probe


# ---------------------------------------------------------------------------
# EventTrace
# ---------------------------------------------------------------------------


class TestEventTrace:
    def test_disabled_by_default(self, monkeypatch):
        trace = EventTrace()
        assert not trace.enabled
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        net = make_net(n=20)
        assert not net.trace.enabled
        assert net.auditor is None

    def test_record_and_slice(self):
        trace = EventTrace().enable(memory=True)
        assert trace.record("hop", 0.1, src=1, dst=2) == 0
        trace.record("hop", 0.2, src=2, dst=3)
        trace.record("reply", 0.3, src=3, dst=1, success=True)
        events = trace.events()
        assert [e.kind for e in events] == ["hop", "hop", "reply"]
        assert [e.seq for e in events] == [0, 1, 2]
        assert events[1].fields["src"] == 2
        assert len(trace) == 3

    def test_count_defaults_to_one(self):
        batched = TraceEvent(seq=0, t=0.0, kind="virtual-msg",
                             fields={"count": 7})
        single = TraceEvent(seq=1, t=0.0, kind="hop", fields={})
        assert batched.count == 7
        assert single.count == 1

    def test_slice_of_a_wrapped_trace_is_the_matching_tail(self):
        # Retention keeps the newest events: the retained slice is the
        # tail of the stream, in order.
        trace = EventTrace().enable(memory=True, retention=16)
        for i in range(50):
            trace.record("hop", float(i))
        assert [e.seq for e in trace.events()] == list(range(34, 50))

    def test_jsonl_output(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = EventTrace().enable(memory=False, jsonl_path=str(path))
        trace.record("hop", 0.002, src=1, dst=2)
        trace.record("flood", 0.004, origin=0, ttl=3)
        trace.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "hop"
        assert first["src"] == 1
        assert first["seq"] == 0

    def test_kind_field_allowed_in_payload(self):
        # access-start/end events carry their own "kind" payload field.
        trace = EventTrace().enable(memory=True)
        trace.record("access-start", 0.0, kind="lookup", strategy="RANDOM")
        assert trace.events()[0].fields["kind"] == "lookup"

    def test_trace_env_streams_network_events(self, tmp_path, monkeypatch):
        path = tmp_path / "net.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        net = make_net(n=40)
        strategy = RandomStrategy(FullMembership(net))
        strategy.advertise(net, 0, lambda node: None, target_size=5)
        net.trace.close()
        kinds = {json.loads(line)["kind"]
                 for line in path.read_text().splitlines()}
        assert "access-start" in kinds
        assert "access-end" in kinds
        assert "hop" in kinds
        assert "store" in kinds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("net.unicasts")
        c.inc()
        c.inc(4)
        assert reg.counter("net.unicasts").value == 5

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(10.0)
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.percentile(50) == 2.0
        assert h.percentile(100) == 4.0

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("b").observe(1.5)
        snap = reg.snapshot()
        assert snap["a"] == 2
        assert snap["b"]["count"] == 1
        assert "a" in reg.render()

    def test_network_populates_metrics(self):
        net = make_net(n=40)
        strategy = RandomStrategy(FullMembership(net))
        strategy.advertise(net, 0, lambda node: None, target_size=5)
        strategy.lookup(net, 1, probe_for([]), target_size=5)
        snap = net.metrics.snapshot()
        assert snap["access.advertise.count"] == 1
        assert snap["access.lookup.count"] == 1
        assert snap["access.advertise.messages"] > 0
        assert snap["net.unicasts"] > 0
        assert snap["access.lookup.latency"]["count"] == 1


# ---------------------------------------------------------------------------
# Audit rules on hand-built access spans
# ---------------------------------------------------------------------------


def _ev(seq, kind, /, t=0.0, **fields):
    return TraceEvent(seq=seq, t=t, kind=kind, fields=fields)


def _span(events, access="lookup", **claims):
    """``events`` framed by an access-start and an access-end whose
    payload makes ``claims`` (messages/routing/reply/found/verdict)."""
    end = dict(strategy="T", access=access, messages=0, routing=0,
               reply=None, found=False)
    end.update(claims)
    return ([_ev(0, "access-start", strategy="T", access=access)]
            + list(events) + [_ev(len(events) + 1, "access-end", **end)])


def _audit(events, **claims):
    """Codes the conservation watcher flags on one access span."""
    watcher = ConservationWatcher()
    for event in _span(events, **claims):
        watcher.on_event(event)
    assert watcher.accesses_checked == 1
    return [v.code for v in watcher.violations]


class TestAuditAccess:
    def test_clean_access(self):
        events = [
            _ev(1, "hop", src=0, dst=1),
            _ev(2, "probe", node=1, hit=True),
            _ev(3, "reply", src=1, dst=0, success=True),
            _ev(4, "hop", src=1, dst=0),
        ]
        assert _audit(events, messages=2, found=True, reply=True) == []

    def test_message_mismatch(self):
        assert _audit([_ev(1, "hop", src=0, dst=1)], messages=3) == [
            "conservation-messages"]

    def test_virtual_msg_count_batches(self):
        events = [_ev(1, "virtual-msg", reason="flood-ack", count=5)]
        assert _audit(events, messages=5) == []

    def test_routing_mismatch(self):
        assert _audit([_ev(1, "routing", count=10)], routing=4) == [
            "conservation-routing"]

    def test_reply_claimed_without_trace(self):
        assert _audit([_ev(1, "probe", node=1, hit=True)],
                      reply=True, found=True) == ["reply-mismatch"]

    def test_reply_denied_but_traced_success(self):
        events = [_ev(1, "probe", node=1, hit=True),
                  _ev(2, "reply", src=1, dst=0, success=True)]
        assert _audit(events, reply=False, found=True) == [
            "reply-mismatch"]

    def test_reply_denied_without_attempt(self):
        assert _audit([_ev(1, "probe", node=1, hit=True)],
                      reply=False, found=True) == ["reply-mismatch"]

    def test_reply_unclaimed(self):
        events = [_ev(1, "reply", src=1, dst=0, success=False)]
        assert _audit(events, reply=None) == ["reply-unclaimed"]

    def test_found_without_probe_hit(self):
        events = [_ev(1, "reply", src=1, dst=0, success=True)]
        assert _audit(events, found=True, reply=True) == [
            "found-without-probe"]

    def test_probe_without_found(self):
        events = [_ev(1, "probe", node=1, hit=True)]
        assert _audit(events, found=False) == ["probe-without-found"]
        # The masking vote filter legitimately discards traced hits.
        assert _audit(events, found=False, verdict="masked") == []
        # Probe rules are lookup rules.
        assert _audit(events, access="advertise") == []

    def test_nested_access_is_audited_at_its_own_level(self):
        # A maintenance refresh firing inside an outer access: each
        # span balances on its own events only.
        events = [
            _ev(0, "access-start", access="advertise"),
            _ev(1, "hop", src=0, dst=1),
            _ev(2, "access-start", access="advertise"),
            _ev(3, "hop", src=5, dst=6),
            _ev(4, "access-end", access="advertise", messages=1),
            _ev(5, "hop", src=1, dst=2),
            _ev(6, "access-end", access="advertise", messages=2),
        ]
        watcher = ConservationWatcher()
        for event in events:
            watcher.on_event(event)
        assert watcher.violations == []
        assert watcher.accesses_checked == 2

    def test_strict_auditor_raises(self):
        auditor = AccountingAuditor(strict=True)
        watcher = ConservationWatcher()
        hub = WatcherHub([watcher], auditor=auditor)
        with pytest.raises(AuditError, match="conservation-messages"):
            for event in _span([], messages=1):
                hub.on_event(event)
        assert watcher.accesses_checked == 1
        assert not auditor.clean

    def test_record_auditor_collects(self):
        auditor = AccountingAuditor(strict=False)
        hub = WatcherHub([ConservationWatcher()], auditor=auditor)
        for event in _span([], messages=1):
            hub.on_event(event)
        assert not auditor.clean
        assert "conservation-messages" in auditor.report()


# ---------------------------------------------------------------------------
# Regression: RANDOM-SAMPLING lookup reply/hit accounting (the bug that
# motivated this layer)
# ---------------------------------------------------------------------------


def _scripted_sampling(monkeypatch, net, members, reply_outcomes):
    """Make MD-walk sampling return ``members`` in order and send_reply
    pop successive ``reply_outcomes``.

    The fakes claim messages that were never transmitted, so the
    accounting auditor (if the suite runs under REPRO_AUDIT) is
    detached — these tests check result semantics, not accounting.
    """
    net.auditor = None
    if net.watch_hub is not None:
        net.watch_hub.detach()
    samples = [SampleResult(node=m, steps=3, messages=3, path=[0, 50 + i, m])
               for i, m in enumerate(members)]
    sample_iter = iter(samples)
    monkeypatch.setattr("repro.core.strategies.max_degree_walk_sample",
                        lambda *a, **kw: next(sample_iter))
    outcomes = list(reply_outcomes)
    monkeypatch.setattr(
        "repro.core.strategies.send_reply",
        lambda *a, **kw: ReplyResult(success=outcomes.pop(0), messages=2))


class TestSamplingLookupRegression:
    def test_first_hit_is_kept(self, monkeypatch):
        """A second hit must not overwrite the first hit's node/value."""
        net = make_net(n=60)
        _scripted_sampling(monkeypatch, net, members=[7, 8],
                           reply_outcomes=[True, True])
        strategy = RandomSamplingStrategy()

        def probe(node):
            return f"value-{node}" if node in (7, 8) else None

        result = strategy.lookup(net, 0, probe, target_size=2)
        assert result.found
        assert result.hit_node == 7
        assert result.hit_value == "value-7"

    def test_delivered_reply_not_clobbered_by_later_failure(self, monkeypatch):
        """reply_delivered must stay True once any reply landed (the old
        code's `reply_delivered = reply.success` lost the first reply)."""
        net = make_net(n=60)
        _scripted_sampling(monkeypatch, net, members=[7, 8],
                           reply_outcomes=[True, False])
        result = RandomSamplingStrategy().lookup(
            net, 0, probe_for([7, 8]), target_size=2)
        assert result.reply_delivered is True
        assert result.success

    def test_late_success_still_counts(self, monkeypatch):
        net = make_net(n=60)
        _scripted_sampling(monkeypatch, net, members=[7, 8],
                           reply_outcomes=[False, True])
        result = RandomSamplingStrategy().lookup(
            net, 0, probe_for([7, 8]), target_size=2)
        assert result.reply_delivered is True

    def test_all_replies_lost(self, monkeypatch):
        net = make_net(n=60)
        _scripted_sampling(monkeypatch, net, members=[7, 8],
                           reply_outcomes=[False, False])
        result = RandomSamplingStrategy().lookup(
            net, 0, probe_for([7, 8]), target_size=2)
        assert result.found
        assert result.reply_delivered is False
        assert not result.success


# ---------------------------------------------------------------------------
# Regression: RANDOM adaptation must not burn retries on duplicate draws
# ---------------------------------------------------------------------------


class ScriptedMembership:
    """sample_for returns a scripted initial pick, then scripted
    single-node replacement draws."""

    def __init__(self, initial, replacements):
        self.initial = list(initial)
        self.replacements = list(replacements)

    def sample_for(self, origin, k, rng):
        if k > 1:
            return list(self.initial)
        if self.replacements:
            return [self.replacements.pop(0)]
        return []


class TestRandomAdaptationRegression:
    def test_duplicate_replacement_draws_cost_no_retries(self):
        """Replacement draws landing on already-reached nodes caused no
        transmission, so they must not consume the adaptation budget."""
        net = make_net(n=100)
        a, b = 3, 4
        membership = ScriptedMembership(initial=[a, a],
                                        replacements=[a, a, b])
        strategy = RandomStrategy(membership, adaptation_retries=0)
        result = strategy.advertise(net, 0, lambda node: None, target_size=2)
        # With retries burned on the duplicate draws (the old behaviour),
        # b would never be attempted and the quorum would be just {a}.
        assert result.quorum == sorted([a, b])

    def test_replacement_draws_are_bounded(self):
        net = make_net(n=100)
        a = 3
        # Every replacement draw returns the reached node: the strategy
        # must give up instead of looping forever.
        membership = ScriptedMembership(initial=[a, a],
                                        replacements=[a] * 50)
        strategy = RandomStrategy(membership, adaptation_retries=2)
        result = strategy.advertise(net, 0, lambda node: None, target_size=2)
        assert result.quorum == [a]


# ---------------------------------------------------------------------------
# Latency stamping (direct strategy calls used to report 0.0)
# ---------------------------------------------------------------------------


class TestLatencyStamping:
    def _strategies(self, net):
        membership = FullMembership(net)
        return [
            RandomStrategy(membership),
            RandomSamplingStrategy(),
            PathStrategy(),
            UniquePathStrategy(),
            FloodingStrategy(ttl=4),
            RandomOptStrategy(membership),
        ]

    def test_all_strategies_stamp_advertise_latency(self):
        net = make_net(n=80)
        for strategy in self._strategies(net):
            result = strategy.advertise(net, 0, lambda node: None,
                                        target_size=8)
            assert result.latency > 0.0, strategy.name

    def test_all_strategies_stamp_lookup_latency(self):
        net = make_net(n=80)
        for strategy in self._strategies(net):
            result = strategy.lookup(net, 0, probe_for([]), target_size=8)
            assert result.latency > 0.0, strategy.name

    def test_latency_matches_clock_advance(self):
        net = make_net(n=80)
        before = net.now
        result = RandomStrategy(FullMembership(net)).advertise(
            net, 0, lambda node: None, target_size=10)
        assert result.latency == pytest.approx(net.now - before)


# ---------------------------------------------------------------------------
# Strict audit over live strategies and a fig8-style workload
# ---------------------------------------------------------------------------


@pytest.fixture
def strict_net(monkeypatch):
    """A network whose every access is audited in strict mode."""
    monkeypatch.setenv("REPRO_AUDIT", "strict")

    def build(n=80, seed=0, **kw):
        net = SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed, **kw))
        assert net.auditor is not None and net.auditor.strict
        return net

    return build


def _audited(net):
    """How many accesses the network's conservation watcher checked."""
    return next(w for w in net.watch_hub.watchers
                if isinstance(w, ConservationWatcher)).accesses_checked


class TestStrictAudit:
    def test_every_strategy_passes_strict_audit(self, strict_net):
        net = strict_net(n=80)
        membership = FullMembership(net)
        strategies = [
            RandomStrategy(membership),
            RandomSamplingStrategy(),
            PathStrategy(),
            UniquePathStrategy(),
            FloodingStrategy(ttl=4),
            FloodingStrategy(expanding_ring=True),
            RandomOptStrategy(membership),
        ]
        stored = []
        for strategy in strategies:
            strategy.advertise(net, 0, stored.append, target_size=8)
            strategy.lookup(net, 1, probe_for(stored), target_size=8)
        assert _audited(net) == 2 * len(strategies)
        assert net.auditor.clean, net.auditor.report()
        # The audit streams: nothing is retained in memory for it.
        assert len(net.trace) == 0

    def test_fig8_style_workload_passes_strict_audit(self, strict_net):
        net = strict_net(n=60, seed=3)
        membership = make_membership(net, "random")
        strategy = RandomStrategy(membership)
        stats = run_scenario(
            net, advertise_strategy=strategy, lookup_strategy=strategy,
            advertise_size=12, lookup_size=10, n_keys=5, n_lookups=15,
            seed=4)
        assert stats.lookups == 15
        # Local-cache lookups skip the quorum access, so the audited
        # count can be below advertises + lookups.
        assert _audited(net) >= 15
        assert net.auditor.clean, net.auditor.report()
        assert stats.avg_lookup_latency > 0.0
        assert stats.avg_advertise_latency > 0.0

    def test_mobile_unique_path_passes_strict_audit(self, strict_net):
        net = strict_net(n=60, seed=5, mobility="waypoint")
        membership = make_membership(net, "random")
        stats = run_scenario(
            net, advertise_strategy=RandomStrategy(membership),
            lookup_strategy=UniquePathStrategy(local_repair=True),
            advertise_size=12, lookup_size=10, n_keys=4, n_lookups=10,
            seed=6)
        assert stats.lookups == 10
        assert net.auditor.clean, net.auditor.report()

    def test_corrupted_accounting_is_caught(self, strict_net):
        net = strict_net(n=60)

        class LyingStrategy(RandomStrategy):
            def _advertise(self, net, origin, store_fn, target_size):
                result = super()._advertise(net, origin, store_fn,
                                            target_size)
                result.messages += 1  # claim a message never sent
                return result

        strategy = LyingStrategy(FullMembership(net))
        with pytest.raises(AuditError, match="conservation-messages"):
            strategy.advertise(net, 0, lambda node: None, target_size=5)

    @pytest.mark.parametrize("lie,hits,code", [
        # Claims a delivered reply though no probe hit, so none was sent.
        ("reply", (), "reply-mismatch"),
        # Claims a hit no probe returned.
        ("found", (), "found-without-probe"),
        # Drops the hit every probe returned.
        ("drop", range(60), "probe-without-found"),
    ])
    def test_lying_lookup_is_caught(self, strict_net, lie, hits, code):
        net = strict_net(n=60)

        class LyingLookup(RandomStrategy):
            def _lookup(self, net, origin, probe_fn, target_size):
                result = super()._lookup(net, origin, probe_fn,
                                         target_size)
                if lie == "reply":
                    result.reply_delivered = True
                elif lie == "found":
                    result.found = True
                else:
                    result.found = False
                return result

        strategy = LyingLookup(FullMembership(net))
        with pytest.raises(AuditError, match=code):
            strategy.lookup(net, 1, probe_for(hits), target_size=8)

    def test_masked_lookup_discarding_hits_is_clean(self, strict_net):
        net = strict_net(n=60)
        # Every node answers with its own value: no value gathers the
        # b+1 votes, so the traced probe hits are masked away.
        strategy = MaskingStrategy(RandomStrategy(FullMembership(net)), b=2)
        result = strategy.lookup(net, 1, lambda node: f"value-{node}",
                                 target_size=8)
        assert result.masked and not result.found
        assert _audited(net) == 1
        assert net.auditor.clean, net.auditor.report()
