"""Byzantine behaviors, masking quorums, and the adversary/watcher contract.

Four layers:

* theory — the hypergeometric b-masking sizing rule (b=0 identity with
  Lemma 5.2, monotonicity, infeasibility);
* unit — the MaskingStrategy vote filter on a stub inner strategy
  (threshold, masked, found_corrupt, version ordering) and the
  ByzantineRegistry's wrappers;
* mutation — every undefended Byzantine behavior trips an invariant
  watcher (lie/capture -> fabricated-value, drop/stale ->
  intersection-below-bound), proving the watchers can catch each
  adversary;
* defence — the same adversaries under a sized MaskingStrategy stay
  watcher-clean with zero corrupt reads.

Watcher hubs here are built in record mode (no auditor) so the tests
behave identically under ``REPRO_AUDIT=strict``: the point is to
*count* violations, not to die on the first one.
"""

import math
import random

import pytest
from reference import per_event

from repro.analysis.intersection import (
    masking_intersection_probability,
    masking_miss_probability_exact,
    masking_quorum_size,
    masking_vote_threshold,
    miss_probability_exact,
    symmetric_quorum_size,
)
from repro.core import MaskingStrategy, ProbabilisticBiquorum, parse_masking_name
from repro.core.strategies import AccessResult, AccessStrategy, RandomStrategy
from repro.faults import run_fault_campaign
from repro.faults.byzantine import (
    BYZANTINE_BEHAVIORS,
    CaptureSpec,
    ensure_byzantine,
    fabricated_reply,
)
from repro.obs import AuditError
from repro.membership import RandomMembership
from repro.obs.watch import WatcherHub, builtin_watchers
from repro.services import LocationService
from repro.simnet import NetworkConfig, SimNetwork

EPSILON = 0.05


# ---------------------------------------------------------------------------
# Theory: the b-masking sizing rule
# ---------------------------------------------------------------------------


class TestMaskingSizing:
    def test_b0_reduces_to_lemma_5_2(self):
        for n in (40, 100, 250):
            q = symmetric_quorum_size(n, EPSILON)
            # b=0 masking miss == the Lemma 5.2 exact empty-intersection
            # probability, for any quorum size.
            assert masking_miss_probability_exact(q, q, n, 0) == pytest.approx(
                miss_probability_exact(q, q, n))
            # The exact-bisection size can only undercut the asymptotic
            # sqrt(n ln(1/eps)) formula, never exceed it — and it still
            # honours epsilon.
            q0 = masking_quorum_size(n, EPSILON, 0)
            assert q0 <= q
            assert masking_miss_probability_exact(q0, q0, n, 0) <= EPSILON

    def test_size_grows_with_b(self):
        sizes = [masking_quorum_size(100, EPSILON, b) for b in range(5)]
        assert sizes == sorted(sizes)
        assert sizes[4] > sizes[0]

    def test_sized_quorums_honour_epsilon(self):
        for n, b in ((60, 3), (100, 5), (200, 8)):
            q = masking_quorum_size(n, EPSILON, b)
            assert masking_intersection_probability(q, q, n, b) >= 1 - EPSILON
            # And q is minimal: one less violates the bound.
            assert masking_intersection_probability(
                q - 1, q - 1, n, b) < 1 - EPSILON

    def test_infeasible_configurations_raise(self):
        # n < 2b + 1: no quorum can guarantee a 2b+1 intersection.
        with pytest.raises(ValueError):
            masking_quorum_size(5, EPSILON, 3)
        # n >= 2b + 1 is always feasible (q = n intersects in full).
        assert masking_quorum_size(7, 1e-12, 3) == 7

    def test_vote_threshold(self):
        assert masking_vote_threshold(0) == 1
        assert masking_vote_threshold(4) == 5

    def test_name_roundtrip(self):
        assert parse_masking_name("MASKING[b=3,RANDOM]") == (3, "RANDOM")
        assert parse_masking_name("RANDOM") is None


# ---------------------------------------------------------------------------
# Unit: the vote filter on a stub inner strategy
# ---------------------------------------------------------------------------


class _ProbeAll(AccessStrategy):
    """Probes a fixed node list; replies come from a dict."""

    name = "STUB"
    uniform_random = True

    def __init__(self, replies):
        self.replies = replies

    def _advertise(self, net, origin, store_fn, target_size):
        raise NotImplementedError

    def _lookup(self, net, origin, probe_fn, target_size):
        result = AccessResult(strategy=self.name, kind="lookup")
        for node in sorted(self.replies):
            reply = probe_fn(node)
            result.quorum.append(node)
            if reply is not None and not result.found:
                result.found = True
                result.hit_node = node
                result.hit_value = reply
        return result


def _masked_lookup(replies, b, threshold=None):
    strategy = MaskingStrategy(_ProbeAll(replies), b, threshold=threshold)

    def probe(node):
        return replies[node]
    probe.access_vote_key = lambda reply: reply[0]
    probe.access_version_of = lambda reply: reply[1]
    return strategy._lookup(None, 0, probe, len(replies))


class TestMaskingVoteFilter:
    def test_corroborated_value_wins(self):
        result = _masked_lookup(
            {1: ("v", 3), 2: ("v", 3), 3: None, 4: ("x", 9)}, b=1)
        assert result.verdict == "found"
        assert result.hit_value == ("v", 3)
        assert not result.found_corrupt and not result.masked

    def test_lone_fabrication_is_masked(self):
        result = _masked_lookup({1: ("x", 99), 2: None, 3: None}, b=1)
        assert result.verdict == "masked"
        assert result.masked and not result.found
        assert result.hit_node is None and result.hit_value is None

    def test_all_miss_is_a_plain_miss(self):
        result = _masked_lookup({1: None, 2: None}, b=1)
        assert result.verdict == "miss"
        assert not result.masked

    def test_conflicting_confirmed_values_flag_corrupt(self):
        # Adversary above budget: two values both reach the threshold.
        result = _masked_lookup(
            {1: ("v", 1), 2: ("v", 1), 3: ("w", 7), 4: ("w", 7)}, b=1)
        assert result.found and result.found_corrupt
        assert result.verdict == "found_corrupt"

    def test_votes_aggregate_by_value_across_versions(self):
        # Refresh-skewed honest replicas corroborate; newest version is
        # returned.
        result = _masked_lookup(
            {1: ("v", 1), 2: ("v", 5), 3: ("v", 3)}, b=2)
        assert result.verdict == "found"
        assert result.hit_value == ("v", 5)

    def test_b0_accepts_first_reply(self):
        result = _masked_lookup({1: ("v", 1)}, b=0)
        assert result.verdict == "found"

    def test_custom_threshold_overrides_default(self):
        result = _masked_lookup({1: ("v", 1), 2: ("v", 1)}, b=4, threshold=2)
        assert result.verdict == "found"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MaskingStrategy(_ProbeAll({}), -1)
        with pytest.raises(ValueError):
            MaskingStrategy(_ProbeAll({}), 1, threshold=0)


# ---------------------------------------------------------------------------
# Unit: the ByzantineRegistry wrappers
# ---------------------------------------------------------------------------


class TestByzantineRegistry:
    def test_fabrications_are_node_salted(self):
        assert fabricated_reply(3) != fabricated_reply(4)

    def test_lie_mode_fabricates_probe_replies(self):
        net = SimNetwork(NetworkConfig(n=10, seed=1))
        reg = ensure_byzantine(net)
        reg.attach([3], "lie")
        probed = reg.wrap_probe(lambda node: None)
        assert probed(3) == fabricated_reply(3)
        assert probed(4) is None

    def test_drop_mode_discards_stores_and_denies_probes(self):
        net = SimNetwork(NetworkConfig(n=10, seed=1))
        reg = ensure_byzantine(net)
        reg.attach([2], "drop")
        stored = []
        wrapped_store = reg.wrap_store(stored.append)
        wrapped_store(2)   # acked but discarded
        wrapped_store(5)
        assert stored == [5]
        probed = reg.wrap_probe(lambda node: ("v", 1))
        assert probed(2) is None
        assert probed(5) == ("v", 1)

    def test_detach_restores_honest_behavior(self):
        net = SimNetwork(NetworkConfig(n=10, seed=1))
        reg = ensure_byzantine(net)
        reg.attach([1, 2], "lie")
        assert reg.active
        reg.detach([1, 2], "lie")
        assert not reg.active
        probed = reg.wrap_probe(lambda node: None)
        assert probed(1) is None

    def test_unknown_behavior_rejected(self):
        net = SimNetwork(NetworkConfig(n=10, seed=1))
        with pytest.raises(ValueError):
            ensure_byzantine(net).attach([1], "gaslight")


# ---------------------------------------------------------------------------
# Mutation + defence: end-to-end adversary vs watcher contract
# ---------------------------------------------------------------------------


def _adversarial_run(behavior, *, n=60, seed=5, b=None, n_byz=None,
                     n_keys=4, n_lookups=200, per_event_access=False):
    """One seeded workload with ``behavior`` active from before the
    advertises; returns (hub, corrupt_reads, lookups, hits, masked)."""
    net = SimNetwork(NetworkConfig(n=n, avg_degree=10.0, seed=seed))
    if per_event_access:
        per_event(net)
    # Record-mode hub: identical behavior under REPRO_AUDIT=strict.
    hub = WatcherHub(builtin_watchers(n=net.n_alive), auditor=None)
    trace = net.trace
    if not trace.enabled:
        trace.enable(memory=False)
    hub.attach(trace)

    if b is not None:
        size = masking_quorum_size(n, EPSILON, b)
    else:
        size = symmetric_quorum_size(n, EPSILON)
    view = max(size, int(round(2.0 * math.sqrt(n))))
    membership = RandomMembership(net, view_size=view)
    inner = RandomStrategy(membership)
    lookup = MaskingStrategy(inner, b) if b is not None else inner
    biquorum = ProbabilisticBiquorum(
        net, advertise=RandomStrategy(membership), lookup=lookup,
        advertise_size=size, lookup_size=size,
        adjust_to_network_size=False)
    service = LocationService(biquorum, enable_caching=False)

    reg = ensure_byzantine(net)
    rng = random.Random(seed + 1)
    victims = rng.sample(range(n), n_byz)
    reg.attach(victims, behavior)

    for i in range(n_keys):
        service.advertise(net.random_alive_node(rng), f"k{i}", f"value-{i}")
    wrng = random.Random(seed + 2)
    lookups = hits = corrupt = masked = 0
    for i in range(n_lookups):
        net.advance(0.05)
        key = f"k{i % n_keys}"
        receipt = service.lookup(net.random_alive_node(wrng), key)
        lookups += 1
        if receipt.found:
            hits += 1
            if receipt.value != f"value-{int(key[1:])}":
                corrupt += 1
        elif receipt.access is not None and receipt.access.masked:
            masked += 1
    hub.finish()
    hub.detach()
    membership.stop()
    return hub, corrupt, lookups, hits, masked


def _codes(hub):
    return {v.code for v in hub.violations}


class TestUndefendedAdversariesAreCaught:
    """Mutation tests: each behavior, injected into an undefended
    deployment, must trip the specific invariant it breaks."""

    def test_lie_trips_fabricated_value(self):
        hub, corrupt, *_ = _adversarial_run("lie", n_byz=12)
        assert "fabricated-value" in _codes(hub)
        assert corrupt > 0  # the adversary really did damage

    def test_capture_trips_fabricated_value(self):
        net = SimNetwork(NetworkConfig(n=60, avg_degree=10.0, seed=5))
        hub = WatcherHub(builtin_watchers(n=net.n_alive), auditor=None)
        net.trace.enable(memory=False)
        hub.attach(net.trace)
        size = symmetric_quorum_size(60, EPSILON)
        membership = RandomMembership(net)
        biquorum = ProbabilisticBiquorum(
            net, advertise=RandomStrategy(membership),
            lookup=RandomStrategy(membership),
            advertise_size=size, lookup_size=size,
            adjust_to_network_size=False)
        service = LocationService(biquorum, enable_caching=False)
        reg = ensure_byzantine(net)
        reg.add_capture(CaptureSpec(fraction=0.5, rng=random.Random(3),
                                    key="k0"))
        rng = random.Random(4)
        service.advertise(net.random_alive_node(rng), "k0", "value-0")
        corrupt = 0
        for _ in range(60):
            net.advance(0.05)
            receipt = service.lookup(net.random_alive_node(rng), "k0")
            if receipt.found and receipt.value != "value-0":
                corrupt += 1
        hub.finish()
        hub.detach()
        membership.stop()
        assert "fabricated-value" in _codes(hub)
        assert corrupt > 0

    @pytest.mark.parametrize("behavior", ["drop", "stale"])
    def test_silent_shrink_trips_intersection_bound(self, behavior):
        # 80% of replicas acking-then-discarding (or serving nothing)
        # starves the hypergeometric floor; the sequential test must
        # notice the statistically-impossible hit shortfall.
        hub, _, lookups, hits, _ = _adversarial_run(
            behavior, n_byz=48, n_lookups=200)
        assert "intersection-below-bound" in _codes(hub)
        assert hits < lookups  # the shrink was real

    def test_behavior_list_is_covered(self):
        assert set(BYZANTINE_BEHAVIORS) == {"lie", "stale", "drop", "capture"}


class TestMaskedAdversariesAreDefeated:
    """Defence tests: the same adversaries, within a sized masking
    budget, cause zero corrupt reads and keep every watcher silent."""

    @pytest.mark.parametrize("behavior", ["lie", "stale", "drop"])
    def test_within_budget_adversary_is_clean(self, behavior):
        hub, corrupt, lookups, hits, masked = _adversarial_run(
            behavior, b=6, n_byz=5, n_lookups=120)
        assert hub.violations == []
        assert corrupt == 0
        # Availability holds: masked reads stay within the sizing eps
        # (binomial slack on top of the 0.05 bound).
        assert masked <= math.ceil(2 * EPSILON * lookups)
        assert hits > 0

    def test_masked_capture_campaign_is_clean(self):
        report = run_fault_campaign(
            campaign="capture", n=60, seed=7, n_keys=4, n_lookups=60,
            watch=True, masking_b=6)
        assert report.watch_violations == []
        assert report.corrupt_reads == 0
        assert report.masking_b == 6
        assert report.hits > 0

    def test_undefended_capture_campaign_is_caught(self):
        # The builtin capture campaign with no masking defence: the
        # watchers must flag it.  Under REPRO_AUDIT=strict the first
        # fabrication raises mid-run — equally "caught".
        try:
            report = run_fault_campaign(
                campaign="capture", n=60, seed=7, n_keys=4, n_lookups=60,
                watch=True)
        except AuditError:
            return
        assert report.watch_violations
        assert any("fabricated-value" in str(v)
                   for v in report.watch_violations)
        assert report.corrupt_reads > 0

    @pytest.mark.parametrize("backend", ["sequential", "batched"])
    def test_masking_runs_under_both_access_backends(self, backend):
        hub, corrupt, lookups, hits, masked = _adversarial_run(
            "lie", b=4, n_byz=3, n_lookups=60,
            per_event_access=(backend == "sequential"))
        assert hub.violations == []
        assert corrupt == 0
        assert hits > 0
