"""Tests for the replicated key-value store with timed-quorum leases.

Covers the serving surface (put/get/cas over the biquorum), the lease
lifecycle (expiry, renewal, lazy reclamation, adaptive TTL), masking
composition, and the consistency-history checker — including mutation
tests that inject corrupted histories and assert each violation class
is caught.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from reference import per_event

from repro.core import (
    AccessPolicy,
    AccessResult,
    AccessStrategy,
    MaskingStrategy,
    ProbabilisticBiquorum,
    RandomStrategy,
)
from repro.faults import run_kv_fault_campaign
from repro.faults.byzantine import ensure_byzantine
from repro.experiments.workload import WorkloadSpec, run_workload_sequential
from repro.membership import FullMembership, RandomMembership
from repro.services import (
    KVHistoryChecker,
    QuorumKVStore,
    Timestamp,
    check_kv_batch,
)
from repro.simnet import NetworkConfig, SimNetwork


def _holders(store, key):
    """Alive replicas currently able to answer for ``key``."""
    return sorted(node for node in store.net.alive_nodes()
                  if store.table.visible(node, key) is not None)


def build(n=100, seed=0, epsilon=0.05, lease_ttl=1e5, masking_b=None,
          **kv_kw):
    net = SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed))
    membership = FullMembership(net)
    lookup = RandomStrategy(membership)
    if masking_b is not None:
        lookup = MaskingStrategy(lookup, masking_b)
    bq = ProbabilisticBiquorum(
        net, advertise=RandomStrategy(membership), lookup=lookup,
        epsilon=epsilon)
    store = QuorumKVStore(bq, lease_ttl=lease_ttl, **kv_kw)
    return net, store


class TestPutGetCas:
    def test_put_then_get(self):
        net, store = build()
        put = store.put(0, "color", "green")
        assert put.ok and put.version is not None
        got = store.get(50, "color")
        assert got.ok and got.value == "green"
        assert got.version == put.version

    def test_get_unknown_key_misses(self):
        net, store = build()
        got = store.get(10, "nothing")
        assert not got.ok and got.value is None and got.version is None

    def test_versions_increase_per_writer(self):
        net, store = build()
        v1 = store.put(0, "k", "a").version
        v2 = store.put(0, "k", "b").version
        v3 = store.put(1, "k", "c").version
        assert v1 < v2 < v3

    def test_cas_insert_if_absent(self):
        net, store = build()
        first = store.cas(0, "slot", None, "claimed")
        assert first.ok
        second = store.cas(1, "slot", None, "stolen")
        assert not second.ok
        assert store.get(2, "slot").value == "claimed"

    def test_cas_succeeds_on_match_fails_on_mismatch(self):
        net, store = build()
        store.put(0, "k", "v1")
        bad = store.cas(1, "k", "wrong", "v2")
        assert not bad.ok
        good = store.cas(1, "k", "v1", "v2")
        assert good.ok
        assert store.get(2, "k").value == "v2"

    def test_latency_and_messages_accounted(self):
        net, store = build()
        put = store.put(0, "k", "v")
        assert put.latency > 0 and put.messages > 0
        assert len(put.accesses) == 2  # query + propagate

    def test_metrics_counters(self):
        net, store = build()
        store.put(0, "k", "v")
        store.get(1, "k")
        assert net.metrics.counter_value("kv.put.count") == 1
        assert net.metrics.counter_value("kv.get.ok") == 1


class TestLeases:
    def test_get_misses_after_expiry(self):
        net, store = build(lease_ttl=5.0)
        store.put(0, "k", "v")
        assert store.get(1, "k").ok
        net.run_until(net.now + 10.0)
        assert not store.get(1, "k").ok

    def test_rewrite_renews_lease(self):
        net, store = build(lease_ttl=5.0)
        store.put(0, "k", "v")
        net.run_until(net.now + 4.0)
        store.put(0, "k", "v2")  # fresh lease on a new quorum
        net.run_until(net.now + 4.0)
        got = store.get(1, "k")
        assert got.ok and got.value == "v2"

    def test_lazy_reclamation_counted(self):
        net, store = build(lease_ttl=5.0)
        store.put(0, "k", "v")
        net.run_until(net.now + 10.0)
        assert net.metrics.counter_value("kv.lease.reclaimed") == 0
        store.get(1, "k")  # the touch that sweeps expired entries
        assert net.metrics.counter_value("kv.lease.reclaimed") > 0

    def test_holders_empty_after_expiry(self):
        net, store = build(lease_ttl=5.0)
        store.put(0, "k", "v")
        assert len(_holders(store, "k")) > 0
        net.run_until(net.now + 10.0)
        assert _holders(store, "k") == []

    def test_fixed_ttl_reported(self):
        net, store = build(lease_ttl=42.0)
        assert store.current_ttl() == 42.0

    def test_churn_rate_estimate_derives_ttl(self):
        net, store = build(lease_ttl=None, churn_rate=0.01,
                           min_survival=0.9)
        # ln(1/0.9)/0.01 ~ 10.54s
        assert store.current_ttl() == pytest.approx(
            math.log(1.0 / 0.9) / 0.01)

    def test_adaptive_ttl_shrinks_under_churn(self):
        net, store = build(lease_ttl=None, adaptive=True)
        quiet = store.current_ttl()
        for victim in range(10):
            net.fail_node(victim)
        net.run_until(net.now + 50.0)
        assert store.churn.rate() > 0
        assert store.current_ttl() < quiet


class TestMaskingComposition:
    def test_put_get_under_masking(self):
        net, store = build(masking_b=1, epsilon=0.02)
        store.put(0, "k", "safe")
        got = store.get(1, "k")
        assert got.ok and got.value == "safe"

    def test_put_get_under_masking_traced(self):
        # Replicas stamp different lease expiries, so the tracing wrapper
        # must hand masking the service's vote key: voting on whole
        # replies would mask every honest read (as REPRO_AUDIT=strict,
        # which traces, used to).
        net, store = build(masking_b=1, epsilon=0.02)
        net.trace.enable(memory=True)
        store.put(0, "k", "safe")
        got = store.get(1, "k")
        assert got.ok and got.value == "safe"

    def test_expired_entries_not_voted(self):
        net, store = build(masking_b=1, epsilon=0.02, lease_ttl=5.0)
        store.put(0, "k", "v")
        net.run_until(net.now + 10.0)
        # Expired leases never reply, so the vote tally stays empty:
        # the masking read misses instead of confirming dead data.
        assert not store.get(1, "k").ok


class TestCheckerIntegration:
    def test_honest_run_is_clean(self):
        net, store = build(checker=KVHistoryChecker())
        for i in range(5):
            store.put(i, f"k{i % 2}", f"v{i}")
        for i in range(10):
            store.get(i, f"k{i % 2}")
        store.cas(0, "k0", store.get(0, "k0").value, "final")
        report = store.checker.report()
        assert report.clean
        assert report.writes == 5 and report.reads == 11
        assert report.cas_attempts == 1

    def test_lease_expired_miss_is_not_violation(self):
        net, store = build(lease_ttl=5.0, checker=KVHistoryChecker())
        store.put(0, "k", "v")
        net.run_until(net.now + 10.0)
        store.get(1, "k")
        report = store.checker.report()
        assert report.clean and report.missed_reads == 1


class _FadingStrategy(AccessStrategy):
    """Advertise attempt 1 stores at two replicas but falls short of its
    target; every retry reaches nobody.  Lookups probe those replicas."""

    name = "FADING"
    uniform_random = True  # keeps the biquorum's sizing warning quiet
    REPLICAS = (1, 2)

    def __init__(self):
        self.advertise_attempts = 0

    def _advertise(self, net, origin, store_fn, target_size):
        self.advertise_attempts += 1
        result = AccessResult(strategy=self.name, kind="advertise",
                              target_size=target_size)
        if self.advertise_attempts == 1:
            for node in self.REPLICAS:
                store_fn(node)
            result.quorum = list(self.REPLICAS)
        return result  # success stays False: the policy retries

    def _lookup(self, net, origin, probe_fn, target_size):
        result = AccessResult(strategy=self.name, kind="lookup",
                              target_size=target_size, success=True,
                              quorum=list(self.REPLICAS))
        for node in self.REPLICAS:
            value = probe_fn(node)
            if value is not None and not result.found:
                result.found, result.hit_node = True, node
                result.hit_value = value
        return result


def _fading_store():
    net = SimNetwork(NetworkConfig(n=30, avg_degree=10, seed=0))
    strategy = _FadingStrategy().set_policy(AccessPolicy(max_retries=1))
    bq = ProbabilisticBiquorum(net, advertise=strategy, lookup=strategy,
                               epsilon=0.05)
    return net, strategy, QuorumKVStore(bq, lease_ttl=1e5,
                                        checker=KVHistoryChecker())


class TestRetriedWriteCommit:
    """A write commits iff some replica executed the store — not iff the
    *last* policy attempt happened to report a quorum."""

    @pytest.mark.parametrize("op", ["put", "cas"])
    def test_retry_reaching_nobody_keeps_attempt_one_commit(self, op):
        net, strategy, store = _fading_store()
        if op == "put":
            wrote = store.put(0, "k", "v")
        else:
            wrote = store.cas(0, "k", None, "v")
        last = wrote.accesses[-1]
        assert last.attempts == 2 and last.quorum == []
        assert wrote.ok  # attempt 1's replicas hold the version
        assert _holders(store, "k") == list(strategy.REPLICAS)
        assert store.latest_committed("k") == (wrote.version, "v")
        got = store.get(5, "k")
        assert got.ok and got.version == wrote.version and not got.stale
        assert store.checker.report().clean  # no fabricated-read

    def test_store_discarded_by_every_replica_does_not_commit(self):
        net, strategy, store = _fading_store()
        ensure_byzantine(net).attach(list(strategy.REPLICAS), "drop")
        put = store.put(0, "k", "v")
        assert not put.ok and _holders(store, "k") == []
        assert not store.get(5, "k").ok
        assert store.checker.report().clean


class TestRetriedCampaignCommits:
    """The stress campaign with the shipped policy (two retries): a
    retried put once booked uncommitted made the next read of it look
    fabricated, about one seed in twenty, so the campaign ran without
    retries in the benchmark.  Every seed must come out clean."""

    @pytest.mark.parametrize("seed", [35, 36, 37])
    def test_stress_campaign_with_retries_is_clean(self, seed, monkeypatch):
        retried = []
        for kind in ("advertise", "lookup"):
            def counting(self, *args, _access=getattr(AccessStrategy, kind),
                         **kwargs):
                result = _access(self, *args, **kwargs)
                retried.append(result.attempts > 1)
                return result
            monkeypatch.setattr(AccessStrategy, kind, counting)
        report = run_kv_fault_campaign("stress", n=200, n_ops=380,
                                       seed=seed, watch=True)
        assert report.stats.ops == 380 and report.failures > 0
        assert sum(retried) > 20  # the retries ran
        assert report.consistency.violations == {}
        assert report.clean and report.watch_clean


class TestCheckerMutations:
    """Inject corrupted histories; every violation class must be caught."""

    def test_stale_read_counted_not_violated(self):
        c = KVHistoryChecker()
        c.record_put("k", 0, Timestamp(1, 0), "old", 0.0)
        c.record_put("k", 1, Timestamp(2, 1), "new", 1.0)
        c.record_get("k", 2, True, "old", Timestamp(1, 0), 2.0)
        report = c.report()
        assert report.clean and report.stale_reads == 1

    def test_fabricated_version_caught(self):
        c = KVHistoryChecker()
        c.record_get("k", 0, True, "ghost", Timestamp(9, 9), 0.0)
        assert c.report().violations == {"fabricated-read": 1}

    def test_fabricated_value_caught(self):
        c = KVHistoryChecker()
        c.record_put("k", 0, Timestamp(1, 0), "real", 0.0)
        c.record_get("k", 1, True, "forged", Timestamp(1, 0), 1.0)
        assert c.report().violations == {"fabricated-read": 1}

    def test_lost_cas_caught(self):
        c = KVHistoryChecker()
        c.record_put("k", 0, Timestamp(1, 0), "v", 0.0)
        c.record_cas("k", 1, True, Timestamp(2, 1), "w",
                     Timestamp(1, 0), 1.0, committed=False)
        assert c.report().violations == {"cas-lost": 1}

    def test_stale_cas_counted_not_violated(self):
        c = KVHistoryChecker()
        c.record_put("k", 0, Timestamp(1, 0), "a", 0.0)
        c.record_put("k", 1, Timestamp(2, 1), "b", 1.0)
        # cas decided off the stale (1, 0) view but still committed.
        c.record_cas("k", 2, True, Timestamp(3, 2), "c",
                     Timestamp(1, 0), 2.0, committed=True)
        report = c.report()
        assert report.clean and report.stale_cas == 1

    def test_duplicate_version_caught(self):
        c = KVHistoryChecker()
        c.record_put("k", 0, Timestamp(1, 0), "a", 0.0)
        c.record_put("k", 0, Timestamp(1, 0), "a-again", 1.0)
        assert c.report().violations == {"duplicate-version": 1}

    def test_expired_read_caught(self):
        c = KVHistoryChecker()
        c.record_put("k", 0, Timestamp(1, 0), "v", 0.0)
        c.record_get("k", 1, True, "v", Timestamp(1, 0),
                     started_at=10.0, expires_at=5.0)
        assert c.report().violations == {"expired-read": 1}

    def test_batch_checker_catches_each_class(self):
        inf = math.inf
        # reads: [clean hit, stale, missed, fabricated, future, expired]
        report = check_kv_batch(
            read_time=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            read_version=[3, 1, -1, 2, 7, 3],
            read_latest=[3, 3, 3, -1, 3, 3],
            read_expiry=[inf, inf, inf, inf, inf, 5.5],
        )
        assert report.stale_reads == 1 and report.missed_reads == 1
        assert report.violations == {
            "fabricated-read": 1, "future-read": 1, "expired-read": 1}

    def test_batch_checker_clean_case(self):
        report = check_kv_batch(
            read_time=[1.0, 2.0],
            read_version=[1, 2],
            read_latest=[2, 2],
            read_expiry=[math.inf, math.inf],
            writes=2, cas_attempts=1, cas_successes=1,
        )
        assert report.clean and report.stale_reads == 1
        assert report.ops == 5


_SCIPY_FREE_RUN = """
import sys
from repro.core import ProbabilisticBiquorum, RandomStrategy
from repro.experiments.workload import WorkloadSpec, run_workload_sequential
from repro.membership import RandomMembership
from repro.services import KVHistoryChecker, QuorumKVStore
from repro.simnet import NetworkConfig, SimNetwork
net = SimNetwork(NetworkConfig(n=60, seed=2))
membership = RandomMembership(net)
bq = ProbabilisticBiquorum(net, advertise=RandomStrategy(membership),
                           lookup=RandomStrategy(membership), epsilon=0.05)
store = QuorumKVStore(bq, lease_ttl=60.0, checker=KVHistoryChecker())
stats = run_workload_sequential(store, WorkloadSpec(
    ops=40, n_keys=8, read_fraction=0.7, cas_fraction=0.2, zipf_s=0.99,
    arrival_rate=0.25, seed=2))
assert stats.ops == 40 and net.counters["network"] > 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_live_kv_run_imports_no_scipy():
    # Importing scipy costs a fraction of a second, more than a whole
    # kv pass: routes are answered from the repo's own BFS trees, and
    # only the quorum-algebra optimizer may load it, on demand.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN], cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


class TestRouteIdentity:
    """The live service is the same run whether a routed send goes in
    one step or hop by hop (``per_event``).  Probe and store times hang
    on the clock here, so a clock that drifts by one float addition, a
    mis-charged bystander or a cache entry stamped differently shows up
    in the op stream, not only in the counters."""

    CHURN = (("fail", 30.0, 5), ("fail", 75.0, 17), ("join", 110.0, None),
             ("fail", 140.0, 33), ("revive", 190.0, 5),
             ("fail", 230.0, 48), ("join", 260.0, None),
             ("revive", 300.0, 33))

    def _run(self, seed, churn, trace_path, reference):
        net = SimNetwork(NetworkConfig(n=120, avg_degree=10, seed=seed))
        if reference:
            per_event(net)
        if trace_path is not None:
            net.trace.enable(memory=False, jsonl_path=str(trace_path))
        if churn:
            actions = {"fail": net.fail_node, "revive": net.revive_node,
                       "join": lambda _: net.join_node()}
            for action, t, node in self.CHURN:
                net.sim.schedule_at(t, actions[action], node)
        membership = RandomMembership(net)
        bq = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=RandomStrategy(membership), epsilon=0.05)
        store = QuorumKVStore(bq, lease_ttl=120.0,
                              checker=KVHistoryChecker())
        stats = run_workload_sequential(store, WorkloadSpec(
            ops=90, n_keys=12, read_fraction=0.7, cas_fraction=0.3,
            zipf_s=0.99, arrival_rate=0.25, seed=seed))
        membership.stop()
        net.trace.close()
        return (repr(stats), dict(net.counters), net.metrics.snapshot(),
                net.energy.per_node, net.now, dict(net._route_cache))

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("churn", [False, True])
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_live_kv_run_matches_its_per_event_twin(self, seed, churn,
                                                    traced, tmp_path):
        paths = [tmp_path / f"{side}.jsonl" if traced else None
                 for side in ("batched", "per_event")]
        batched = self._run(seed, churn, paths[0], reference=False)
        twin = self._run(seed, churn, paths[1], reference=True)
        assert batched == twin
        assert len(batched[5]) > 100  # the ops did route
        if traced:
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert paths[0].stat().st_size > 0
