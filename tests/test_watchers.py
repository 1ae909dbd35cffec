"""Live invariant watchers, the SLO monitor, and their CLI/campaign hooks.

Three layers of coverage:

* unit — the subscriber API, each builtin watcher on hand-built event
  streams (including *mutated* streams proving every watcher can fire),
  the P² estimator, and histogram retention;
* integration — full fault campaigns run clean under every watcher,
  strict audit turns a tampered stream into a raise, and the golden
  fig8 trace replays with zero violations;
* CLI — ``repro obs watch`` exit codes, verdict reports, stdin
  summarize, and the manifest's trace-schema stamp.
"""

import json
import math
import random

import pytest

from repro.faults import run_fault_campaign, run_kv_fault_campaign
from repro.obs import (
    MANIFEST_SCHEMA,
    TRACE_SCHEMA,
    AuditError,
    ConservationWatcher,
    EventTrace,
    Histogram,
    HopRun,
    MonotonicityWatcher,
    NoFabricationWatcher,
    P2Quantile,
    QuorumIntersectionWatcher,
    SloMonitor,
    SloSpec,
    TraceEvent,
    Watcher,
    WatcherHub,
    attach_watchers,
    builtin_watchers,
    collect_manifest,
    load_slo_specs,
    replay_trace,
)
from repro.obs.audit import AccountingAuditor
from repro.simnet import NetworkConfig, SimNetwork

GOLDEN_TRACE = "tests/golden/fig8_trace.jsonl"
GOLDEN_KV_TRACE = "tests/golden/kv_trace.jsonl"


def _ev(seq, kind, /, t=0.0, **fields):
    return TraceEvent(seq=seq, t=t, kind=kind, fields=fields)


def _stream(specs):
    """Build contiguous events from (kind, fields) pairs."""
    return [_ev(i, kind, t=float(i), **fields)
            for i, (kind, fields) in enumerate(specs)]


def _access_pair(seq0, kind="lookup", messages=0, hops=0, **end_fields):
    """One access span with ``hops`` hop events inside it."""
    events = [_ev(seq0, "access-start", t=float(seq0), strategy="RANDOM",
                  access=kind, origin=0)]
    for i in range(hops):
        events.append(_ev(seq0 + 1 + i, "hop", t=float(seq0 + 1 + i),
                          src=0, dst=i + 1))
    events.append(_ev(seq0 + 1 + hops, "access-end", t=float(seq0 + 1 + hops),
                      strategy="RANDOM", access=kind, origin=0,
                      messages=messages, routing=0, **end_fields))
    return events


# ---------------------------------------------------------------------------
# Subscriber API
# ---------------------------------------------------------------------------


class TestSubscriberApi:
    def test_subscribers_receive_every_event(self):
        trace = EventTrace().enable(memory=False)
        seen = []
        trace.subscribe(seen.append)
        trace.record("hop", 1.0, src=0, dst=1)
        trace.emit("broadcast", 2.0, src=1)
        assert [e.kind for e in seen] == ["hop", "broadcast"]
        assert seen[0].fields["src"] == 0

    def test_unsubscribe_and_double_subscribe(self):
        trace = EventTrace().enable(memory=False)
        seen = []
        trace.subscribe(seen.append)
        trace.subscribe(seen.append)  # idempotent
        trace.record("hop", 1.0)
        trace.unsubscribe(seen.append.__self__.append
                          if hasattr(seen.append, "__self__") else seen.append)
        trace.unsubscribe(seen.append)  # missing: ignored
        trace.record("hop", 2.0)
        assert len(seen) == 1

    def test_subscriber_only_mode_skips_retention(self):
        trace = EventTrace().enable(memory=False)
        trace.subscribe(lambda e: None)
        trace.record("hop", 1.0)
        assert len(trace) == 0  # no memory retention


# ---------------------------------------------------------------------------
# Exception isolation
# ---------------------------------------------------------------------------


class _Crasher(Watcher):
    name = "crasher"

    def handler_for(self, kind):
        return self._boom

    def _boom(self, event):
        raise RuntimeError("boom")


class _AuditRaiser(Watcher):
    """Simulates strict-mode auditing: its raises are deliberate."""

    name = "audit-raiser"

    def __init__(self, at_finish=False):
        super().__init__()
        self.at_finish = at_finish

    def handler_for(self, kind):
        return self._raise

    def _raise(self, event):
        if not self.at_finish:
            raise AuditError("deliberate strict raise")

    def finish(self):
        if self.at_finish:
            raise AuditError("deliberate strict raise at finish")


class _Interrupter(Watcher):
    name = "interrupter"

    def handler_for(self, kind):
        return self._interrupt

    def _interrupt(self, event):
        raise KeyboardInterrupt


class TestExceptionIsolation:
    def test_crashing_watcher_never_breaks_the_stream(self):
        hub = WatcherHub([_Crasher(), MonotonicityWatcher()])
        for event in _stream([("hop", {}), ("hop", {})]):
            hub.on_event(event)  # no raise
        assert hub.crashes == 2
        codes = {v.code for v in hub.violations}
        assert codes == {"watcher-crashed"}
        # The healthy watcher kept running (counts fold in at flush).
        hub.finish()
        assert hub.watchers[1].events_seen == 2

    def test_strict_auditor_raises_on_violation(self):
        auditor = AccountingAuditor(strict=True)
        hub = WatcherHub([MonotonicityWatcher()], auditor=auditor)
        hub.on_event(_ev(0, "hop", t=5.0))
        with pytest.raises(AuditError):
            hub.on_event(_ev(1, "hop", t=1.0))  # clock regression

    def test_record_auditor_collects_and_survives(self):
        auditor = AccountingAuditor(strict=False)
        hub = WatcherHub([MonotonicityWatcher()], auditor=auditor)
        hub.on_event(_ev(0, "hop", t=5.0))
        hub.on_event(_ev(1, "hop", t=1.0))
        hub.on_event(_ev(2, "hop", t=6.0))
        assert not hub.clean
        assert auditor.violations[0].code == "monotonicity-clock"

    def test_audit_error_from_handler_propagates(self):
        # Regression: the dispatch isolation must NOT swallow the
        # deliberate strict-audit raise into a watcher-crashed flag.
        hub = WatcherHub([_AuditRaiser(), MonotonicityWatcher()])
        with pytest.raises(AuditError):
            hub.on_event(_ev(0, "hop", t=1.0))
        assert hub.crashes == 0
        assert not any(v.code == "watcher-crashed" for v in hub.violations)

    def test_audit_error_from_finish_propagates(self):
        hub = WatcherHub([_AuditRaiser(at_finish=True)])
        hub.on_event(_ev(0, "hop", t=1.0))
        with pytest.raises(AuditError):
            hub.finish()
        assert hub.crashes == 0

    def test_keyboard_interrupt_propagates(self):
        # BaseException escapes the isolation net entirely — a ^C must
        # stop the run, never be recorded as a crashed watcher.
        hub = WatcherHub([_Interrupter()])
        with pytest.raises(KeyboardInterrupt):
            hub.on_event(_ev(0, "hop", t=1.0))
        assert hub.crashes == 0

    def test_plain_crash_in_finish_still_isolated(self):
        class FinishCrasher(Watcher):
            name = "finish-crasher"

            def finish(self):
                raise RuntimeError("boom at finish")

        hub = WatcherHub([FinishCrasher()])
        hub.finish()  # no raise
        assert hub.crashes == 1
        assert hub.violations[0].code == "watcher-crashed"

    def test_audit_error_propagates_in_every_fused_arity(self):
        # The dispatch fuses 1, 2, and N handlers into different
        # closures; the AuditError re-raise must hold in each shape.
        for extras in (0, 1, 3):
            watchers = [_AuditRaiser()] + [
                MonotonicityWatcher() for _ in range(extras)]
            hub = WatcherHub(watchers)
            with pytest.raises(AuditError):
                hub.on_event(_ev(0, "hop", t=1.0))
            assert hub.crashes == 0

    def test_session_ledger_mirrors_violations(self):
        ledger = []
        hub = WatcherHub([MonotonicityWatcher()], session_ledger=ledger)
        hub.on_event(_ev(0, "hop", t=5.0))
        hub.on_event(_ev(1, "hop", t=1.0))
        assert len(ledger) == 1 and ledger[0].code == "monotonicity-clock"


# ---------------------------------------------------------------------------
# Builtin watchers: clean streams pass, mutated streams fire
# ---------------------------------------------------------------------------


class TestMonotonicityWatcher:
    def test_clean_stream(self):
        w = MonotonicityWatcher()
        for e in _stream([("hop", {}), ("hop", {"topology_version": 1}),
                          ("hop", {"topology_version": 2})]):
            w.on_event(e)
        assert not w.violations

    def test_clock_regression_fires(self):
        w = MonotonicityWatcher()
        w.on_event(_ev(0, "hop", t=5.0))
        w.on_event(_ev(1, "hop", t=4.0))
        assert [v.code for v in w.violations] == ["monotonicity-clock"]

    def test_seq_gap_fires(self):
        w = MonotonicityWatcher()
        w.on_event(_ev(0, "hop"))
        w.on_event(_ev(2, "hop", t=1.0))
        assert [v.code for v in w.violations] == ["monotonicity-seq"]

    def test_topology_regression_fires(self):
        # Stamped on a non-message kind: live hop/broadcast/routing
        # events never carry topology_version, so the watcher skips the
        # field test on them.
        w = MonotonicityWatcher()
        w.on_event(_ev(0, "churn", topology_version=3))
        w.on_event(_ev(1, "churn", t=1.0, topology_version=2))
        assert [v.code for v in w.violations] == ["monotonicity-topology"]

    def test_direct_and_hub_delivery_agree(self):
        # One dispatch body: on_event and the hub both go through
        # handler_for, so they judge (and count) a stream identically —
        # including the hop body that skips the topology test.
        stream = _stream([("hop", {"topology_version": 3}),
                          ("hop", {"topology_version": 2}),
                          ("churn", {"topology_version": 5}),
                          ("churn", {"topology_version": 4})])
        direct = MonotonicityWatcher()
        for e in stream:
            direct.on_event(e)
        hubbed = MonotonicityWatcher()
        hub = WatcherHub([hubbed])
        for e in stream:
            hub.on_event(e)
        hub.finish()
        assert [v.code for v in direct.violations] == [
            v.code for v in hubbed.violations] == ["monotonicity-topology"]
        assert direct.events_seen == hubbed.events_seen == 4


class TestConservationWatcher:
    def test_balanced_access_passes(self):
        w = ConservationWatcher()
        for e in _access_pair(0, messages=2, hops=2, success=True):
            w.on_event(e)
        assert not w.violations and w.accesses_checked == 1

    def test_dropped_accounting_event_fires(self):
        # The seeded mutation: the access claims 3 messages but one hop
        # event was dropped from the stream.
        w = ConservationWatcher()
        events = _access_pair(0, messages=3, hops=2, success=True)
        for e in events:
            w.on_event(e)
        assert [v.code for v in w.violations] == ["conservation-messages"]

    def test_nested_access_accrues_to_inner_frame(self):
        w = ConservationWatcher()
        events = [
            _ev(0, "access-start", strategy="A", access="lookup", origin=0),
            _ev(1, "access-start", t=1.0, strategy="B", access="lookup",
                origin=1),
            _ev(2, "hop", t=2.0),
            _ev(3, "access-end", t=3.0, strategy="B", access="lookup",
                origin=1, messages=1, routing=0),
            _ev(4, "access-end", t=4.0, strategy="A", access="lookup",
                origin=0, messages=0, routing=0),
        ]
        for e in events:
            w.on_event(e)
        assert not w.violations

    def test_unmatched_end_fires(self):
        w = ConservationWatcher()
        w.on_event(_ev(0, "access-end", strategy="A", access="lookup",
                       messages=0, routing=0))
        assert [v.code for v in w.violations] == ["conservation-unmatched-end"]


class TestNoFabricationWatcher:
    def test_stored_then_hit_passes(self):
        w = NoFabricationWatcher()
        w.on_event(_ev(0, "store", node=3, key="k"))
        w.on_event(_ev(1, "probe", t=1.0, node=3, hit=True, key="k"))
        assert not w.violations

    def test_fabricated_probe_hit_fires(self):
        # The seeded mutation: a reply for a key no advertise ever stored.
        w = NoFabricationWatcher()
        w.on_event(_ev(0, "store", node=3, key="real"))
        w.on_event(_ev(1, "probe", t=1.0, node=5, hit=True, key="ghost"))
        assert [v.code for v in w.violations] == ["fabricated-value"]

    def test_found_end_for_never_stored_key_fires(self):
        w = NoFabricationWatcher()
        w.on_event(_ev(0, "access-end", access="lookup", found=True,
                       key="ghost", messages=0, routing=0))
        assert [v.code for v in w.violations] == ["fabricated-value"]

    def test_keyless_events_are_skipped(self):
        # Pre-schema-2 traces carry no key payloads: never fires.
        w = NoFabricationWatcher()
        w.on_event(_ev(0, "probe", node=5, hit=True))
        w.on_event(_ev(1, "access-end", t=1.0, access="lookup", found=True,
                       messages=0, routing=0))
        assert not w.violations


class TestQuorumIntersectionWatcher:
    def _lookup(self, seq0, key, found, quorum):
        return [
            _ev(seq0, "access-start", t=float(seq0), strategy="RANDOM",
                access="lookup", origin=0, key=key),
            _ev(seq0 + 1, "access-end", t=float(seq0 + 1), strategy="RANDOM",
                access="lookup", origin=0, key=key, found=found,
                quorum=quorum, messages=0, routing=0),
        ]

    def test_all_miss_stream_fires(self):
        # n=20, 10 stored copies, lookups reach 10 nodes: p_hit ~ 1.
        # 200 straight misses is statistically impossible under the
        # hypergeometric bound.
        w = QuorumIntersectionWatcher(n=20)
        for node in range(10):
            w.on_event(_ev(node, "store", t=0.0, node=node, key="k"))
        seq = 10
        for _ in range(200):
            for e in self._lookup(seq, "k", found=False, quorum=10):
                w.on_event(e)
            seq += 2
        assert any(v.code == "intersection-below-bound"
                   for v in w.violations)

    def test_plausible_hits_stay_clean(self):
        w = QuorumIntersectionWatcher(n=20)
        for node in range(10):
            w.on_event(_ev(node, "store", t=0.0, node=node, key="k"))
        seq = 10
        for _ in range(200):
            for e in self._lookup(seq, "k", found=True, quorum=10):
                w.on_event(e)
            seq += 2
        assert not w.violations

    def test_disarms_on_non_uniform_advertise(self):
        w = QuorumIntersectionWatcher(n=20)
        w.on_event(_ev(0, "access-start", strategy="UNIQUE-PATH",
                       access="advertise", origin=0))
        assert not w.armed

    def test_dormant_without_n(self):
        w = QuorumIntersectionWatcher(n=None)
        for e in self._lookup(0, "k", found=False, quorum=10):
            w.on_event(e)
        assert w.lookups_counted == 0 and not w.violations

    def test_churn_adjusts_alive_copies(self):
        w = QuorumIntersectionWatcher(n=10)
        w.on_event(_ev(0, "store", node=1, key="k"))
        w.on_event(_ev(1, "churn", t=1.0, action="fail", node=1))
        assert w._alive_copies("k") == 0
        w.on_event(_ev(2, "churn", t=2.0, action="revive", node=1))
        assert w._alive_copies("k") == 1


# ---------------------------------------------------------------------------
# P² quantile estimator
# ---------------------------------------------------------------------------


class TestP2Quantile:
    def test_exact_for_first_five(self):
        p = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            p.observe(v)
        assert p.value() == 3.0

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.9).value())

    def test_converges_on_uniform(self):
        rng = random.Random(42)
        values = [rng.random() for _ in range(20000)]
        for q in (0.5, 0.9, 0.99):
            est = P2Quantile(q)
            for v in values:
                est.observe(v)
            exact = sorted(values)[int(q * len(values)) - 1]
            assert abs(est.value() - exact) < 0.02, (q, est.value(), exact)

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


class TestBoundedHistogram:
    def test_default_mode_unchanged(self):
        h = Histogram("x")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.values == [3.0, 1.0, 2.0]  # raw retention
        assert h.percentile(50) == 2.0
        assert h.count == 3 and h.sum == 6.0

    def test_sorted_cache_invalidated_by_observe(self):
        h = Histogram("x")
        h.observe(2.0)
        assert h.percentile(100) == 2.0  # populates cache
        h.observe(9.0)
        assert h.percentile(100) == 9.0  # cache was invalidated


# ---------------------------------------------------------------------------
# SLO monitor
# ---------------------------------------------------------------------------


class TestSloMonitor:
    def _lookup_pair(self, seq0, latency, found=True):
        return [
            _ev(seq0, "access-start", t=float(seq0), strategy="R",
                access="lookup", origin=0),
            _ev(seq0 + 1, "access-end", t=seq0 + latency, strategy="R",
                access="lookup", origin=0, found=found, messages=4,
                routing=0, quorum=5),
        ]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SloSpec(metric="x")  # no bound
        with pytest.raises(ValueError):
            SloSpec(metric="x", p=101, max=1.0)
        with pytest.raises(ValueError):
            SloSpec(metric="x", max=1.0, window=0)
        with pytest.raises(ValueError):
            load_slo_specs('[{"metric": "x", "max": 1, "typo": 2}]')

    def test_load_from_file_and_wrapper(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"slos": [{"metric": "m", "max": 1.0}]}')
        specs = load_slo_specs(str(path))
        assert specs[0].metric == "m" and specs[0].p is None

    def test_window_breach_fires(self):
        mon = SloMonitor([SloSpec(metric="lookup.latency", max=0.5,
                                  window=2)])
        seq = 0
        for latency in (1.0, 2.0):  # both above max; window of 2 closes
            for e in self._lookup_pair(seq, latency):
                mon.on_event(e)
            seq += 2
        assert [v.code for v in mon.violations] == ["slo-violation"]
        report = mon.slo_report()
        assert report["violations"] == 1 and not report["ok"]
        assert report["slos"][0]["windows"][0]["partial"] is False

    def test_partial_window_evaluated_at_finish(self):
        mon = SloMonitor([SloSpec(metric="lookup.hit_rate", min=0.9,
                                  window=100)])
        for e in self._lookup_pair(0, 0.1, found=False):
            mon.on_event(e)
        assert not mon.violations
        mon.finish()
        assert [v.code for v in mon.violations] == ["slo-violation"]
        assert mon.slo_report()["slos"][0]["windows"][0]["partial"] is True

    def test_percentile_spec_uses_p2(self):
        mon = SloMonitor([SloSpec(metric="lookup.latency", p=99, max=5.0,
                                  window=50)])
        seq = 0
        for _ in range(50):
            for e in self._lookup_pair(seq, 0.5):
                mon.on_event(e)
            seq += 2
        assert not mon.violations
        report = mon.slo_report()
        assert report["slos"][0]["windows"][0]["value"] == pytest.approx(
            0.5, abs=1e-9)

    def test_derived_field_metrics(self):
        mon = SloMonitor([SloSpec(metric="lookup.messages", max=3.0,
                                  window=1),
                          SloSpec(metric="lookup.quorum_size", max=10.0,
                                  window=1)])
        for e in self._lookup_pair(0, 0.1):
            mon.on_event(e)
        # messages=4 > 3 fires; quorum=5 <= 10 passes.
        assert len(mon.violations) == 1
        assert "lookup.messages" in mon.violations[0].message


# ---------------------------------------------------------------------------
# Live attachment + campaigns (integration)
# ---------------------------------------------------------------------------


class TestLiveAttachment:
    def test_attach_watchers_wires_trace_and_auditor(self):
        net = SimNetwork(NetworkConfig(n=30, seed=3))
        hub = attach_watchers(net)
        assert net.watch_hub is hub
        assert net.trace.enabled
        net.record_event("hop", src=0, dst=1)
        hub.finish()  # event counts fold in at flush
        assert hub.events_seen == 1

    def test_env_hook_attaches(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCH", "monotonicity,conservation")
        net = SimNetwork(NetworkConfig(n=30, seed=3))
        assert net.watch_hub is not None
        assert {w.name for w in net.watch_hub.watchers} == {
            "monotonicity", "conservation"}

    def test_env_hook_rejects_typos(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCH", "monotonicty")
        with pytest.raises(ValueError):
            SimNetwork(NetworkConfig(n=30, seed=3))

    def test_builtin_watchers_names(self):
        assert {w.name for w in builtin_watchers(n=10)} == {
            "monotonicity", "conservation", "no-fabricated-value",
            "quorum-intersection"}
        with pytest.raises(ValueError):
            builtin_watchers(names=["nope"])

    @pytest.mark.parametrize("campaign", ["smoke", "waves", "join-surge",
                                          "partition", "stress"])
    def test_campaigns_clean_under_all_watchers(self, campaign):
        report = run_fault_campaign(campaign=campaign, n=60, seed=7,
                                    n_lookups=20, watch=True)
        assert report.watch_clean, report.watch_violations
        assert report.watch["events"] > 0

    def test_campaign_slo_breach_reported(self, monkeypatch):
        # An impossible SLO (zero latency) must be reported, not raised
        # — outside strict audit, whose contract is to raise.
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        report = run_fault_campaign(
            campaign="smoke", n=60, seed=7, n_lookups=10,
            slo_specs=[SloSpec(metric="lookup.latency", max=0.0, window=5)])
        assert report.watch_clean is False
        assert any(v.code == "slo-violation"
                   for v in report.watch_violations)


# ---------------------------------------------------------------------------
# Trace replay + golden trace
# ---------------------------------------------------------------------------


class TestReplay:
    def test_golden_trace_is_clean(self):
        result = replay_trace(GOLDEN_TRACE)
        assert result.clean, result.violations
        assert result.events > 0 and result.segments > 1
        assert result.corrupt_lines == 0

    def test_segment_reset_between_runs(self):
        # Two back-to-back runs: clocks restart — must NOT trip
        # monotonicity because seq==0 starts a fresh segment.
        lines = []
        for _run in range(2):
            for e in _stream([("hop", {}), ("hop", {})]):
                lines.append(e.to_json())
        result = replay_trace(lines)
        assert result.segments == 2 and result.clean

    def test_mutated_trace_fires_on_replay(self):
        lines = [e.to_json()
                 for e in _access_pair(0, messages=9, hops=2, success=True)]
        result = replay_trace(lines)
        assert not result.clean
        assert any("conservation-messages" in v for v in
                   result.to_jsonable()["violations"])

    def test_corrupt_lines_counted(self):
        lines = ["not json", _ev(0, "hop").to_json()]
        result = replay_trace(lines)
        assert result.corrupt_lines == 1 and result.events == 1

    def test_golden_kv_trace_is_clean(self):
        # kv versions are tuples live and JSON lists on disk: replay must
        # hand the watchers the live (hashable) payload.
        result = replay_trace(GOLDEN_KV_TRACE)
        assert result.clean, result.violations[:3]
        assert result.events > 0

    def test_kv_campaign_replays_to_the_live_verdict(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "kv.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        report = run_kv_fault_campaign("smoke", n=40, n_keys=4, n_ops=60,
                                       seed=7, watch=True)
        monkeypatch.delenv("REPRO_TRACE")
        assert '"version":[' in path.read_text()
        result = replay_trace(str(path))
        assert report.watch_clean is True
        assert result.clean, result.violations[:3]
        assert result.events == report.watch["events"]

    def test_replayed_fabricated_version_is_caught(self):
        lines = _golden_lines(GOLDEN_KV_TRACE)
        at = next(i for i, raw in enumerate(lines)
                  if raw["kind"] == "access-end" and raw.get("version"))
        lines[at]["version"] = [999, 999]  # a version no store wrote
        result = replay_trace([json.dumps(raw) for raw in lines])
        assert [v.code for v in result.violations] == ["fabricated-value"]

    def test_flipped_reply_is_caught(self):
        lines = _golden_lines(GOLDEN_TRACE)
        at = _sole_hit(lines, "reply", "success", claim="reply")
        lines[at]["success"] = False
        result = replay_trace([json.dumps(raw) for raw in lines])
        assert [v.code for v in result.violations] == ["reply-mismatch"]

    def test_removed_probe_hit_is_caught(self):
        lines = _golden_lines(GOLDEN_TRACE)
        at = _sole_hit(lines, "probe", "hit", claim="found")
        lines[at]["hit"] = False
        result = replay_trace([json.dumps(raw) for raw in lines])
        assert [v.code for v in result.violations] == [
            "found-without-probe"]


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _golden_lines(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _sole_hit(lines, kind, flag, claim):
    """Index of the only ``kind`` event with ``flag`` set inside an
    access span whose ``access-end`` claims ``claim``."""
    open_spans = []
    for i, raw in enumerate(lines):
        if raw["kind"] == "access-start":
            open_spans.append([])
        elif raw["kind"] == "access-end":
            hits = open_spans.pop() if open_spans else []
            if raw.get(claim) and len(hits) == 1:
                return hits[0]
        elif raw["kind"] == kind and raw.get(flag) and open_spans:
            open_spans[-1].append(i)
    raise AssertionError(f"no access with a single {kind} {flag}")


# ---------------------------------------------------------------------------
# Hop runs: a bulk-forwarded path reaches a hub as one call
# ---------------------------------------------------------------------------


class _Collector(Watcher):
    """A custom watcher with no run handler of its own."""

    name = "collector"

    def __init__(self, kinds):
        super().__init__()
        self.kinds = frozenset(kinds)
        self.seen = []

    def handler_for(self, kind):
        return self.seen.append


def _per_event_hub(watchers, auditor=None):
    """A hub fed event by event (subscribed without its run handler)."""
    hub = WatcherHub(watchers, auditor=auditor)
    hub.on_hops = None  # a run reaching this hub would raise
    return hub


def _deliver(hub, items):
    """Feed events and runs; a per-event hub gets each run's events."""
    for item in items:
        if not isinstance(item, HopRun):
            hub.on_event(item)
        elif hub.on_hops is None:
            for event in item.events():
                hub.on_event(event)
        else:
            hub.on_hops(item)


def _parity(items, auditor_strict=None):
    """(raise, violations, per-watcher results) on the run path and on
    the per-event path.  A strict raise aborts the run, so only the
    first two are compared then: the run path has already counted the
    rest of the run it raised in."""
    outcomes = []
    for make in (WatcherHub, _per_event_hub):
        auditor = (None if auditor_strict is None
                   else AccountingAuditor(strict=auditor_strict))
        hub = make([MonotonicityWatcher(), ConservationWatcher()],
                   auditor=auditor)
        try:
            _deliver(hub, items)
            raised = None
        except AuditError as exc:
            raised = str(exc)
        hub.finish()
        outcome = (raised, [str(v) for v in hub.violations],
                   hub.result()["watchers"])
        outcomes.append(outcome[:2] if auditor_strict else outcome)
    return outcomes


class TestHopRuns:
    def test_record_hops_retains_and_writes_the_per_hop_events(self, tmp_path):
        # The same stream, recorded hop by hop and as one run: identical
        # events in memory and identical JSONL bytes, context included.
        path = [4, 9, 2, 7]
        runs = []
        for bulk in (False, True):
            jsonl = tmp_path / f"bulk{bulk}.jsonl"
            trace = EventTrace().enable(memory=True, jsonl_path=str(jsonl))
            trace.context["replica"] = 3
            trace.record("access-start", 0.5, access="lookup")
            if bulk:
                trace.record_hops(0.5, 0.002, path,
                                  {"src": 4, "dst": 7, "ok": True, "hops": 3})
            else:
                t = 0.5
                for a, b in zip(path, path[1:]):
                    t += 0.002
                    trace.record("hop", t, src=a, dst=b, ok=True)
                trace.record("route", t, src=4, dst=7, ok=True, hops=3)
            trace.record("access-end", 1.0)
            trace.close()
            runs.append((trace.events(), jsonl.read_bytes()))
        assert runs[0] == runs[1]
        hops = [e for e in runs[1][0] if e.kind == "hop"]
        assert [list(e.fields) for e in hops] == [
            ["replica", "src", "dst", "ok"]] * 3
        assert [e.seq for e in runs[1][0]] == list(range(6))

    def test_run_handler_gets_one_call_and_plain_subscribers_the_events(self):
        trace = EventTrace().enable(memory=False)
        plain, whole = [], []
        trace.subscribe(plain.append)
        trace.subscribe(lambda e: None, runs=whole.append)
        assert trace.record_hops(1.0, 0.25, [0, 1, 2]) == 0
        assert trace.record("probe", 2.0) == 2
        assert [e.kind for e in plain] == ["hop", "hop", "probe"]
        assert [(e.seq, e.t) for e in plain[:2]] == [(0, 1.25), (1, 1.5)]
        assert len(whole) == 1 and len(whole[0]) == 2
        assert whole[0].events() == plain[:2]

    def test_hub_counts_a_run_as_its_events(self):
        run = HopRun(1, 0.0, 0.5, [0, 1, 2, 3], {"src": 0, "dst": 3}, {})
        stream = [_ev(0, "access-start", strategy="RANDOM", access="advertise")]
        stream_end = _ev(5, "access-end", t=1.5, strategy="RANDOM",
                         access="advertise", messages=3, routing=0)
        results = []
        for make in (WatcherHub, _per_event_hub):
            hub = make(builtin_watchers(n=10)
                       + [_Collector({"route"}), _Collector({"probe"})])
            _deliver(hub, stream + [run, stream_end])
            hub.finish()
            results.append(hub.result())
        assert results[0] == results[1]
        assert results[0]["events"] == 6 and results[0]["ok"]
        by_name = [w["events"] for w in results[0]["watchers"]]
        assert by_name == [6, 5, 1, 2, 1, 0]

    @pytest.mark.parametrize("strict", [None, False, True])
    def test_clock_regression_in_a_run_raises_alike_on_both_paths(self, strict):
        # One regression at the run's first hop, then a negative-latency
        # run that regresses at every hop.
        items = [_ev(0, "hop", t=5.0),
                 HopRun(1, 1.0, 0.5, [0, 1, 2, 3], None, {}),
                 HopRun(4, 2.0, -0.5, [3, 2, 1], {"src": 3, "dst": 1}, {})]
        run_path, event_path = _parity(items, strict)
        assert run_path == event_path
        raised, violations = run_path[:2]
        if strict:
            assert "monotonicity-clock" in raised
            assert len(violations) == 1
        else:
            assert len(violations) == 3
            assert all("monotonicity-clock" in v for v in violations)

    @pytest.mark.parametrize("strict", [None, False, True])
    def test_run_after_a_seq_gap_raises_alike_on_both_paths(self, strict):
        items = [_ev(0, "hop", t=0.0),
                 HopRun(2, 0.0, 0.5, [0, 1, 2], {"src": 0, "dst": 2}, {}),
                 HopRun(6, 2.0, 0.5, [5], {"src": 5, "dst": 5}, {})]
        run_path, event_path = _parity(items, strict)
        assert run_path == event_path
        raised, violations = run_path[:2]
        if strict:
            assert "monotonicity-seq" in raised
        else:
            assert len(violations) == 2
            assert all("monotonicity-seq" in v for v in violations)

    def test_topology_stamped_route_is_still_checked(self):
        items = [_ev(0, "churn", topology_version=5),
                 HopRun(1, 0.0, 0.5, [0, 1], {"topology_version": 4}, {})]
        run_path, event_path = _parity(items)
        assert run_path == event_path
        assert ["monotonicity-topology" in v for v in run_path[1]] == [True]

    def test_custom_watcher_and_plain_subscriber_see_bulk_hops(self):
        # Tracing retained (the per-event record) vs a hub with a custom
        # hop watcher plus a plain subscriber: both see exactly the
        # retained hop events, context fields included.
        def network(seed=3):
            net = SimNetwork(NetworkConfig(n=120, seed=seed))
            net.trace.context["replica"] = 2
            return net

        reference = network()
        reference.trace.enable(memory=True)
        reference.route(0, 77)
        retained = reference.trace.events()

        net = network()
        collector = _Collector({"hop"})
        hub = attach_watchers(net, watchers=[collector, MonotonicityWatcher()])
        plain = []
        net.trace.subscribe(plain.append)
        runs = []
        record_hops = net.trace.record_hops

        def counting(*args, **kwargs):
            runs.append(args)
            return record_hops(*args, **kwargs)
        net.trace.record_hops = counting
        net.route(0, 77)
        hub.finish()
        assert runs, "the route was not bulk-forwarded"
        assert plain == retained
        assert collector.seen == [e for e in retained if e.kind == "hop"]
        assert all(e.fields["replica"] == 2 for e in collector.seen)
        assert retained[-1].kind == "route"
        assert hub.clean and hub.events_seen == len(retained)

    def test_pinned_campaign_hub_work(self, monkeypatch):
        # Deterministic work vector: the hub judges exactly the events
        # per-event delivery gave (7 487, as before hop runs), in fewer
        # calls — 898 of them runs that each stand for a routed path.
        calls = {}
        attach = WatcherHub.attach

        def counting_attach(hub, trace):
            calls.clear()
            calls.update(on_event=0, on_hops=0)
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
        report = run_fault_campaign(campaign="stress", n=100, seed=7,
                                    watch=True)
        assert report.watch["events"] == 7487
        assert [w["events"] for w in report.watch["watchers"]] == [
            7487, 5083, 1318, 1187]
        assert calls == {"on_event": 3151, "on_hops": 898}

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_run_path_verdict_equals_a_replay_of_the_retained_stream(
            self, seed, monkeypatch):
        # Differential: the live hub (hop runs) against fresh builtin
        # watchers fed the retained per-event stream of the same run.
        import repro.faults.scenario as scenario

        def campaign(retain):
            nets = []

            class Retaining(SimNetwork):
                def __init__(self, config):
                    super().__init__(config)
                    if retain:
                        self.trace.enable(memory=True)
                    nets.append(self)
            monkeypatch.setattr(scenario, "SimNetwork", Retaining)
            report = run_fault_campaign(campaign="stress", n=100, seed=seed,
                                        watch=True)
            return report, nets[0]

        live, _ = campaign(retain=False)
        retained_live, net = campaign(retain=True)
        replay = WatcherHub(builtin_watchers(n=100))
        for event in net.trace.events():
            replay.on_event(event)
        replay.finish()
        assert len(net.trace) == live.watch["events"]
        assert replay.result() == live.watch == retained_live.watch


# ---------------------------------------------------------------------------
# CLI + schema stamping
# ---------------------------------------------------------------------------


class TestWatchCli:
    def _write_trace(self, tmp_path, events, name="t.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(e.to_json() for e in events) + "\n")
        return str(path)

    def test_watch_clean_and_verdict_report(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_trace(
            tmp_path, _access_pair(0, messages=1, hops=1, success=True))
        assert main(["obs", "watch", path, "--fail-on-violation"]) == 0
        verdict = _read_json(path + ".verdict.json")
        assert verdict["ok"] is True and verdict["events"] == 3

    def test_watch_violation_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_trace(
            tmp_path, _access_pair(0, messages=9, hops=1, success=True))
        assert main(["obs", "watch", path]) == 0  # report-only
        assert main(["obs", "watch", path, "--fail-on-violation"]) == 1
        out = capsys.readouterr().out
        assert "conservation-messages" in out

    def test_watch_golden_trace_cli(self, capsys):
        from repro.cli import main

        assert main(["obs", "watch", GOLDEN_TRACE, "--fail-on-violation",
                     "--report", "none"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_watch_with_slo_spec(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "slo.json"
        spec.write_text('[{"metric": "lookup.latency", "max": 0.0}]')
        path = self._write_trace(
            tmp_path, _access_pair(0, kind="lookup", messages=1, hops=1,
                                   success=True, found=True, quorum=1))
        assert main(["obs", "watch", path, "--slo", str(spec),
                     "--fail-on-violation"]) == 1
        verdict = _read_json(path + ".verdict.json")
        assert verdict["slo"][0]["violations"] == 1

    def test_watch_bad_slo_spec_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "bad.json"
        spec.write_text('[{"metric": "x"}]')
        path = self._write_trace(tmp_path, [_ev(0, "hop")])
        assert main(["obs", "watch", path, "--slo", str(spec)]) == 2

    def test_summarize_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.cli import main

        lines = "\n".join(
            e.to_json()
            for e in _access_pair(0, messages=1, hops=1, success=True)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["obs", "summarize", "-"]) == 0
        assert "access.lookup" in capsys.readouterr().out

    def test_faults_run_watch_flag(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_TRACE", "sentinel")  # restored by CLI
        trace = str(tmp_path / "c.jsonl")
        assert main(["faults", "run", "--campaign", "smoke", "--n", "60",
                     "--lookups", "10", "--watch", "--fail-on-violation",
                     "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "watch:" in out and "CLEAN" in out
        verdict = _read_json(trace + ".verdict.json")
        assert verdict["ok"] is True

    def test_list_documents_watch(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("watch", "REPRO_WATCH", "REPRO_SLO"):
            assert token in out
        assert "REPRO_HIST_CAPACITY" not in out


class TestSchemaStamp:
    def test_manifest_carries_trace_schema(self):
        manifest = collect_manifest("fig8", params={"n": 25})
        assert manifest.schema == MANIFEST_SCHEMA
        assert manifest.trace_schema == TRACE_SCHEMA

    def test_obs_warns_on_schema_mismatch(self, tmp_path, capsys):
        from repro.obs.query import check_trace_schema

        trace = tmp_path / "old.jsonl"
        trace.write_text(_ev(0, "hop").to_json() + "\n")
        (tmp_path / "old.jsonl.manifest.json").write_text(
            json.dumps({"schema": 1}))  # pre-stamp manifest: schema 1
        assert check_trace_schema(str(trace)) == 1
        assert "warning" in capsys.readouterr().err

    def test_obs_silent_on_match_or_missing(self, tmp_path, capsys):
        from repro.obs.query import check_trace_schema

        trace = tmp_path / "new.jsonl"
        trace.write_text(_ev(0, "hop").to_json() + "\n")
        assert check_trace_schema(str(trace)) is None  # no manifest
        (tmp_path / "new.jsonl.manifest.json").write_text(
            json.dumps({"trace_schema": TRACE_SCHEMA}))
        assert check_trace_schema(str(trace)) == TRACE_SCHEMA
        assert capsys.readouterr().err == ""
