"""Churn-resilience layer: access policies, churn commit semantics,
fault campaigns, adaptive refresh, and the maintenance experiment."""

import random

import pytest

from repro.core import (
    AccessPolicy,
    ProbabilisticBiquorum,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.core.strategies import AccessResult, AccessStrategy
from repro.experiments import maintenance_curves
from repro.faults import (
    BUILTIN_CAMPAIGNS,
    ByzantineBehavior,
    CampaignRunner,
    DropBurst,
    FailureWave,
    FaultCampaign,
    JoinWave,
    Partition,
    StalenessWindow,
    load_campaign,
    run_fault_campaign,
)
from repro.membership import FullMembership
from repro.obs.query import summarize_trace
from repro.obs.trace import record_event
from repro.services import LocationService
from repro.simnet import ChurnProcess, NetworkConfig, SimNetwork, apply_churn


def make_net(n=60, seed=3, **kw):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed, **kw))


def churn_events(net, action=None):
    events = [e for e in net.trace.events() if e.kind == "churn"]
    if action is not None:
        events = [e for e in events if e.fields.get("action") == action]
    return events


# ---------------------------------------------------------------------------
# AccessPolicy
# ---------------------------------------------------------------------------


class TestAccessPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AccessPolicy(deadline=0.0)
        with pytest.raises(ValueError):
            AccessPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            AccessPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            AccessPolicy(jitter=-0.1)

    def test_active(self):
        assert not AccessPolicy().active
        assert AccessPolicy(max_retries=1).active
        assert AccessPolicy(deadline=2.0).active

    def test_backoff_grows_exponentially_and_caps(self):
        policy = AccessPolicy(max_retries=8, backoff_base=0.1,
                              backoff_factor=2.0, backoff_max=0.5,
                              jitter=0.0)
        rng = random.Random(0)
        waits = [policy.backoff_before(i, rng) for i in (1, 2, 3, 4, 5)]
        assert waits[:3] == pytest.approx([0.1, 0.2, 0.4])
        assert waits[3] == waits[4] == pytest.approx(0.5)

    def test_jitter_is_bounded_and_seeded(self):
        policy = AccessPolicy(max_retries=1, backoff_base=1.0, jitter=0.2)
        rng = random.Random(42)
        wait = policy.backoff_before(1, rng)
        assert 1.0 <= wait <= 1.2
        assert wait == policy.backoff_before(1, random.Random(42))


class FlakyStrategy(AccessStrategy):
    """Fails the first ``fail_times`` attempts, then succeeds."""

    name = "FLAKY"

    def __init__(self, fail_times=0, latency=0.0):
        self.fail_times = fail_times
        self.latency = latency
        self.calls = 0

    def _attempt(self, net, kind, origin):
        self.calls += 1
        if self.latency:
            net.advance(self.latency)
        ok = self.calls > self.fail_times
        return AccessResult(strategy=self.name, kind=kind, success=ok,
                            quorum=[origin] if ok else [])

    def _advertise(self, net, origin, store_fn, target_size):
        return self._attempt(net, "advertise", origin)

    def _lookup(self, net, origin, probe_fn, target_size):
        return self._attempt(net, "lookup", origin)


class TestRetryLoop:
    def test_no_policy_means_single_attempt(self):
        net = make_net()
        strategy = FlakyStrategy(fail_times=1)
        result = strategy.advertise(net, 0, lambda n: None, 4)
        assert not result.success
        assert result.attempts == 1
        assert strategy.calls == 1
        assert net.metrics.counter_value("access.retries") == 0

    def test_retries_until_success(self):
        net = make_net()
        net.trace.enable(memory=True)
        strategy = FlakyStrategy(fail_times=2).set_policy(
            AccessPolicy(max_retries=3, backoff_base=0.5, jitter=0.0))
        started = net.now
        result = strategy.advertise(net, 0, lambda n: None, 4)
        assert result.success
        assert result.attempts == 3
        assert strategy.calls == 3
        # Backoffs (0.5 + 1.0) ran on the simulated clock and the final
        # latency covers the whole envelope.
        assert net.now - started == pytest.approx(1.5)
        assert result.latency == pytest.approx(net.now - started)
        assert net.metrics.counter_value("access.retries") == 2
        retries = [e for e in net.trace.events() if e.kind == "access-retry"]
        assert [e.fields["attempt"] for e in retries] == [1, 2]

    def test_retry_budget_exhausted(self):
        net = make_net()
        strategy = FlakyStrategy(fail_times=99).set_policy(
            AccessPolicy(max_retries=2, backoff_base=0.1, jitter=0.0))
        result = strategy.lookup(net, 0, lambda n: None, 4)
        assert not result.success
        assert result.attempts == 3
        assert not result.deadline_missed  # no deadline configured

    def test_deadline_blocks_retries_that_cannot_fit(self):
        net = make_net()
        net.trace.enable(memory=True)
        strategy = FlakyStrategy(fail_times=99).set_policy(
            AccessPolicy(deadline=1.0, max_retries=5, backoff_base=2.0,
                         jitter=0.0))
        result = strategy.lookup(net, 0, lambda n: None, 4)
        assert result.attempts == 1  # the 2 s backoff never fit in 1 s
        assert result.deadline_missed
        assert net.metrics.counter_value("access.deadline_misses") == 1
        assert [e.kind for e in net.trace.events()
                if e.kind == "access-deadline-miss"] == ["access-deadline-miss"]

    def test_slow_success_past_deadline_is_a_miss(self):
        net = make_net()
        strategy = FlakyStrategy(fail_times=0, latency=3.0).set_policy(
            AccessPolicy(deadline=1.0, max_retries=0))
        result = strategy.advertise(net, 0, lambda n: None, 4)
        assert result.success
        assert result.deadline_missed
        assert result.latency == pytest.approx(3.0)

    def test_fast_success_within_deadline_is_not_a_miss(self):
        net = make_net()
        strategy = FlakyStrategy(fail_times=0).set_policy(
            AccessPolicy(deadline=10.0, max_retries=2))
        result = strategy.advertise(net, 0, lambda n: None, 4)
        assert result.success
        assert not result.deadline_missed
        assert net.metrics.counter_value("access.deadline_misses") == 0

    def test_cumulative_messages_across_attempts(self):
        class Costly(FlakyStrategy):
            def _attempt(self, net, kind, origin):
                result = super()._attempt(net, kind, origin)
                # Trace what we claim so the accounting audit stays green.
                record_event(net, "virtual-msg", reason="test", count=5)
                record_event(net, "routing", reason="test", count=2)
                result.messages = 5
                result.routing_messages = 2
                return result

        net = make_net()
        strategy = Costly(fail_times=1).set_policy(
            AccessPolicy(max_retries=1, backoff_base=0.1, jitter=0.0))
        result = strategy.advertise(net, 0, lambda n: None, 4)
        assert result.success and result.attempts == 2
        assert result.messages == 10
        assert result.routing_messages == 4

    def test_real_strategy_under_policy_passes_strict_audit(self):
        net = make_net(seed=5)
        membership = FullMembership(net)
        strategy = RandomStrategy(membership).set_policy(
            AccessPolicy(deadline=30.0, max_retries=2))
        bq = ProbabilisticBiquorum(net, advertise=strategy,
                                   lookup=UniquePathStrategy(),
                                   epsilon=0.05)
        svc = LocationService(bq)
        svc.advertise(0, "k", "v")
        receipt = svc.lookup(7, "k")
        assert receipt.found


# ---------------------------------------------------------------------------
# Churn commit/rollback semantics (satellites 2 and 3)
# ---------------------------------------------------------------------------


class TestChurnCommit:
    def test_tentative_failure_rollback_is_silent(self):
        net = make_net()
        net.trace.enable(memory=True)
        evicted = []
        net.add_failure_listener(evicted.append)
        net.fail_node(5, commit=False)
        assert not net.is_alive(5)
        net.revive_node(5)
        assert net.is_alive(5)
        assert churn_events(net) == []
        assert evicted == []
        assert net.metrics.counter_value("churn.failures") == 0
        assert net.metrics.counter_value("churn.revives") == 0

    def test_commit_fires_event_metrics_and_listeners(self):
        net = make_net()
        net.trace.enable(memory=True)
        evicted = []
        net.add_failure_listener(evicted.append)
        net.fail_node(5, commit=False)
        net.commit_failure(5)
        assert [e.fields["node"] for e in churn_events(net, "fail")] == [5]
        assert net.metrics.counter_value("churn.failures") == 1
        assert evicted == [5]

    def test_revive_after_commit_emits_compensating_event(self):
        net = make_net()
        net.trace.enable(memory=True)
        net.fail_node(5)  # commit=True default
        net.revive_node(5)
        assert len(churn_events(net, "fail")) == 1
        assert len(churn_events(net, "revive")) == 1
        assert net.metrics.counter_value("churn.revives") == 1

    def test_join_counts(self):
        net = make_net()
        net.trace.enable(memory=True)
        net.join_node()
        assert len(churn_events(net, "join")) == 1
        assert net.metrics.counter_value("churn.joins") == 1

    def test_bystander_cache_survives_rollback_but_not_commit(self):
        net = make_net()
        membership = FullMembership(net)
        bq = ProbabilisticBiquorum(net, advertise=RandomStrategy(membership),
                                   lookup=UniquePathStrategy(), epsilon=0.05)
        svc = LocationService(bq, enable_caching=True)
        svc.cache_at(9, "k", "v", version=1)
        net.fail_node(9, commit=False)
        net.revive_node(9)
        assert svc.cache_lookup(9, "k") is not None
        net.fail_node(9)
        assert svc.cache_lookup(9, "k") is None

    def test_apply_churn_trace_matches_outcome(self):
        net = make_net(seed=11)
        net.trace.enable(memory=True)
        outcome = apply_churn(net, fail_fraction=0.3,
                              rng=random.Random(2), keep_connected=True)
        fails = churn_events(net, "fail")
        assert sorted(e.fields["node"] for e in fails) == sorted(outcome.failed)
        # Rollbacks left no trace at all.
        assert churn_events(net, "revive") == []
        assert (net.metrics.counter_value("churn.failures")
                == len(outcome.failed))


def _pending(sim):
    """Queued events that have not been cancelled."""
    return sum(1 for *_, event in sim._queue if not event.cancelled)


class TestChurnProcessStop:
    def test_stop_cancels_pending_events(self):
        net = make_net()
        baseline = _pending(net.sim)
        proc = ChurnProcess(net, failure_rate=0.5, join_rate=0.5,
                            rng=random.Random(1))
        assert _pending(net.sim) == baseline + 2
        proc.stop()
        assert _pending(net.sim) == baseline

    def test_stop_after_running_still_cancels(self):
        net = make_net(seed=4)
        proc = ChurnProcess(net, failure_rate=1.0, join_rate=1.0,
                            rng=random.Random(1))
        net.advance(5.0)
        assert proc.failures + proc.joins > 0
        baseline_alive = net.n_alive
        proc.stop()
        net.advance(20.0)
        assert net.n_alive == baseline_alive  # no churn after stop

    def test_process_uses_commit_protocol(self):
        net = make_net(seed=4)
        net.trace.enable(memory=True)
        proc = ChurnProcess(net, failure_rate=1.0, rng=random.Random(1),
                            keep_connected=True)
        net.advance(10.0)
        proc.stop()
        assert len(churn_events(net, "fail")) == proc.failures


# ---------------------------------------------------------------------------
# Campaign schema + runner
# ---------------------------------------------------------------------------


class TestCampaignSchema:
    def test_roundtrip(self):
        campaign = BUILTIN_CAMPAIGNS["stress"]
        assert FaultCampaign.from_dict(campaign.to_dict()) == campaign

    def test_unknown_injection_type_rejected(self):
        with pytest.raises(ValueError, match="unknown injection"):
            FaultCampaign.from_dict(
                {"name": "x", "injections": [{"type": "meteor", "at": 1.0}]})

    def test_load_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            load_campaign("no-such-campaign")

    def test_load_from_json_file(self, tmp_path):
        import json
        path = tmp_path / "c.json"
        path.write_text(json.dumps(BUILTIN_CAMPAIGNS["waves"].to_dict()))
        assert load_campaign(str(path)) == BUILTIN_CAMPAIGNS["waves"]

    def test_duration(self):
        campaign = FaultCampaign("d", (
            DropBurst(at=1.0, duration=4.0, drop_prob=0.5),
            FailureWave(at=3.0, fraction=0.1)))
        assert campaign.duration == 5.0


class TestCampaignRunner:
    def test_drop_burst_applies_and_restores(self):
        net = make_net()
        campaign = FaultCampaign("b", (
            DropBurst(at=2.0, duration=3.0, drop_prob=0.4),))
        CampaignRunner(net, campaign).start()
        assert net.config.drop_prob == 0.0
        net.run_until(2.5)
        assert net.config.drop_prob == 0.4
        net.run_until(6.0)
        assert net.config.drop_prob == 0.0

    def test_failure_and_join_waves_change_population(self):
        net = make_net(seed=8)
        n0 = net.n_alive
        campaign = FaultCampaign("w", (
            FailureWave(at=1.0, fraction=0.1, keep_connected=False),
            JoinWave(at=2.0, fraction=0.2)))
        runner = CampaignRunner(net, campaign).start()
        net.run_until(1.5)
        assert net.n_alive == n0 - round(0.1 * n0)
        net.run_until(2.5)
        assert net.n_alive > n0 - round(0.1 * n0)
        assert runner.injections_applied == 2

    def test_partition_fails_band_then_heals(self):
        net = make_net(seed=9)
        n0 = net.n_alive
        campaign = FaultCampaign("p", (
            Partition(at=1.0, duration=5.0, axis="x", position=0.5),))
        CampaignRunner(net, campaign).start()
        net.run_until(2.0)
        assert net.n_alive < n0
        net.run_until(7.0)
        assert net.n_alive == n0

    def test_staleness_window_freezes_membership_and_heartbeat(self):
        net = make_net(seed=10)
        membership = FullMembership(net)
        campaign = FaultCampaign("s", (
            StalenessWindow(at=1.0, duration=5.0),))
        CampaignRunner(net, campaign, memberships=(membership,)).start()
        net.run_until(2.0)
        view_during = set(membership.view())
        victim = net.alive_nodes()[0]
        net.fail_node(victim)
        membership.refresh()  # frozen: must be a no-op
        assert set(membership.view()) == view_during
        net.run_until(7.0)  # window over: thaw refreshes
        assert victim not in set(membership.view())

    def test_fault_events_traced(self):
        net = make_net()
        net.trace.enable(memory=True)
        campaign = FaultCampaign("t", (
            DropBurst(at=1.0, duration=2.0, drop_prob=0.2),
            FailureWave(at=2.0, fraction=0.05)))
        CampaignRunner(net, campaign).start()
        net.run_until(5.0)
        faults = [e for e in net.trace.events() if e.kind == "fault"]
        phases = [(e.fields["inject"], e.fields["phase"]) for e in faults]
        assert phases == [("drop-burst", "begin"), ("failure-wave", "begin"),
                          ("drop-burst", "end")]

    def test_stop_cancels_and_unwinds(self):
        net = make_net()
        campaign = FaultCampaign("u", (
            DropBurst(at=1.0, duration=50.0, drop_prob=0.4),
            FailureWave(at=40.0, fraction=0.5, keep_connected=False)))
        runner = CampaignRunner(net, campaign).start()
        net.run_until(2.0)
        assert net.config.drop_prob == 0.4
        n_now = net.n_alive
        runner.stop()
        assert net.config.drop_prob == 0.0  # active burst unwound
        net.run_until(60.0)
        assert net.n_alive == n_now  # pending wave cancelled


class TestOverlappingInjections:
    """Regression: overlapping windows must unwind in reverse-begin
    order, each restoring its predecessor's state — not the baseline."""

    def test_nested_drop_bursts_restore_outer_then_baseline(self):
        net = make_net()
        campaign = FaultCampaign("nest", (
            DropBurst(at=1.0, duration=10.0, drop_prob=0.4),
            DropBurst(at=2.0, duration=3.0, drop_prob=0.7)))
        CampaignRunner(net, campaign).start()
        net.run_until(2.5)
        assert net.config.drop_prob == 0.7
        net.run_until(6.0)   # inner ended: outer burst still active
        assert net.config.drop_prob == 0.4
        net.run_until(12.0)  # outer ended: baseline restored
        assert net.config.drop_prob == 0.0

    def test_identical_overlapping_bursts_unwind_independently(self):
        # Two value-equal (frozen dataclass) bursts active at once: the
        # runner must track them as distinct activations, not collapse
        # them by equality.
        net = make_net()
        campaign = FaultCampaign("twins", (
            DropBurst(at=1.0, duration=10.0, drop_prob=0.5),
            DropBurst(at=2.0, duration=3.0, drop_prob=0.5)))
        CampaignRunner(net, campaign).start()
        net.run_until(6.0)   # inner twin ended
        assert net.config.drop_prob == 0.5  # outer twin still holds
        net.run_until(12.0)
        assert net.config.drop_prob == 0.0

    def test_nested_staleness_windows_stay_frozen_until_last_end(self):
        net = make_net(seed=10)
        membership = FullMembership(net)
        campaign = FaultCampaign("sn", (
            StalenessWindow(at=1.0, duration=10.0),
            StalenessWindow(at=2.0, duration=3.0)))
        CampaignRunner(net, campaign, memberships=(membership,)).start()
        net.run_until(6.0)   # inner window over, outer still open
        view_during = set(membership.view())
        victim = net.alive_nodes()[0]
        net.fail_node(victim)
        membership.refresh()  # must still be frozen
        assert set(membership.view()) == view_during
        net.run_until(12.0)  # outer over: thaw refreshes
        assert victim not in set(membership.view())

    def test_stop_unwinds_in_reverse_begin_order(self):
        net = make_net()
        campaign = FaultCampaign("lifo", (
            DropBurst(at=1.0, duration=50.0, drop_prob=0.4),
            DropBurst(at=2.0, duration=50.0, drop_prob=0.7)))
        runner = CampaignRunner(net, campaign).start()
        net.run_until(3.0)
        assert net.config.drop_prob == 0.7
        runner.stop()  # pops inner (restores 0.4) then outer (0.0)
        assert net.config.drop_prob == 0.0

    def test_byzantine_window_attaches_and_detaches(self):
        net = make_net(seed=11)
        campaign = FaultCampaign("byz", (
            ByzantineBehavior(at=1.0, duration=5.0, behavior="lie",
                              fraction=0.2),))
        runner = CampaignRunner(net, campaign).start()
        net.run_until(2.0)
        assert net.byzantine is not None and net.byzantine.active
        assert set(net.byzantine.modes.values()) == {"lie"}
        net.run_until(7.0)   # window over: honest again
        assert not net.byzantine.active
        assert runner.injections_applied == 1

    def test_stop_detaches_active_byzantine_nodes(self):
        net = make_net(seed=12)
        campaign = FaultCampaign("byzstop", (
            ByzantineBehavior(at=1.0, duration=50.0, behavior="drop",
                              fraction=0.2),))
        runner = CampaignRunner(net, campaign).start()
        net.run_until(2.0)
        assert net.byzantine.active
        runner.stop()
        assert not net.byzantine.active


# ---------------------------------------------------------------------------
# End-to-end campaign scenario: determinism + metrics parity
# ---------------------------------------------------------------------------


class TestRunFaultCampaign:
    def test_same_seed_runs_are_identical(self):
        a = run_fault_campaign(campaign="smoke", n=60, seed=7,
                               n_keys=5, n_lookups=15)
        b = run_fault_campaign(campaign="smoke", n=60, seed=7,
                               n_keys=5, n_lookups=15)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_fault_campaign(campaign="smoke", n=60, seed=7,
                               n_keys=5, n_lookups=15)
        b = run_fault_campaign(campaign="smoke", n=60, seed=8,
                               n_keys=5, n_lookups=15)
        assert a != b

    def test_trace_summary_matches_live_metrics(self, tmp_path, monkeypatch):
        path = tmp_path / "campaign.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        report = run_fault_campaign(campaign="smoke", n=60, seed=7,
                                    n_keys=5, n_lookups=15)
        offline = summarize_trace(str(path)).snapshot()
        assert offline.get("access.retries", 0) == report.retries
        assert offline.get("access.deadline_misses", 0) == report.deadline_misses
        assert offline.get("churn.failures", 0) == report.failures
        assert offline.get("churn.joins", 0) == report.joins
        assert offline.get("churn.revives", 0) == report.revives
        # The policy actually kicked in under the smoke campaign.
        assert report.retries > 0

    def test_refresh_off_mode(self):
        report = run_fault_campaign(campaign="waves", n=60, seed=7,
                                    n_keys=5, n_lookups=10, refresh="off")
        assert report.refresh_rounds == 0
        assert report.refresh_interval is None

    def test_bad_refresh_mode_rejected(self):
        with pytest.raises(ValueError):
            run_fault_campaign(refresh="sometimes")


# ---------------------------------------------------------------------------
# Maintenance experiment (the acceptance-criteria figure)
# ---------------------------------------------------------------------------


class TestMaintenanceCurves:
    def test_degradation_monotone_and_refresh_flattens(self):
        points = maintenance_curves(n=80, n_keys=6)
        off = [p for p in points if p.refresh == "off"]
        on = [p for p in points if p.refresh == "on"]
        assert len(off) == len(on) == 13
        # Without refresh the intersection probability only degrades.
        for a, b in zip(off, off[1:]):
            assert b.intersection <= a.intersection + 1e-12
        # The campaign really did degrade it...
        assert off[-1].intersection < off[0].intersection - 0.05
        # ...and the refresh daemon visibly flattens the curve.
        assert on[-1].refresh_rounds > 0
        assert on[-1].intersection > off[-1].intersection + 0.02
