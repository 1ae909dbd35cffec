"""Property-based tests for the paper's Section 5 theory layer.

Three results get the hypothesis treatment:

* **Corollary 5.3** — any sizing with ``|Qa| * |Ql| >= n ln(1/eps)``
  guarantees a miss probability at most ``eps``, in the *exact*
  hypergeometric model (the paper's bound is the weaker exponential
  form, so the exact model must clear it with room to spare).
* **Lemma 5.6** — the closed-form optimal lookup/advertise size ratio
  really minimizes total workload cost over a grid of alternatives that
  keep the same intersection guarantee.
* **Lemma 5.2 (mix-and-match)** — against a uniform RANDOM advertise
  quorum, the miss probability of an *arbitrary* fixed lookup set
  depends only on its size, never its structure: adversarially clumped
  or spread lookup sets all match the hypergeometric prediction.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
binom = pytest.importorskip("scipy.stats").binom
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis import (  # noqa: E402
    miss_probability_exact,
    required_quorum_product,
)
from repro.analysis.costs import (  # noqa: E402
    optimal_size_ratio,
    total_cost,
)


def _hypergeometric_miss(qa: int, ql: int, n: int) -> float:
    """Reference: C(n - ql, qa) / C(n, qa)."""
    if qa + ql > n:
        return 0.0
    return math.comb(n - ql, qa) / math.comb(n, qa)


class TestCorollary53:
    @given(n=st.integers(8, 500), eps=st.floats(0.01, 0.5),
           split=st.floats(0.25, 4.0))
    @settings(max_examples=120, deadline=None)
    def test_product_sizing_guarantees_epsilon(self, n, eps, split):
        # Split the required product |Qa| * |Ql| >= n ln(1/eps) across the
        # two sides at an arbitrary ratio; the guarantee must hold for
        # every split, not just the symmetric one.
        product = required_quorum_product(n, eps)
        qa = min(n, max(1, math.ceil(math.sqrt(product * split))))
        ql = min(n, max(1, math.ceil(math.sqrt(product / split))))
        if qa * ql < product:  # the caps at n can undercut the product
            return
        assert miss_probability_exact(qa, ql, n) <= eps + 1e-9

    @given(n=st.integers(8, 500), eps=st.floats(0.01, 0.5))
    @settings(max_examples=80, deadline=None)
    def test_exact_model_beats_exponential_bound(self, n, eps):
        # The hypergeometric (without-replacement) miss is never worse
        # than the exp(-qa*ql/n) bound the paper's sizing rule inverts.
        product = required_quorum_product(n, eps)
        q = min(n, max(1, math.ceil(math.sqrt(product))))
        exact = miss_probability_exact(q, q, n)
        bound = math.exp(-q * q / n)
        assert exact <= bound + 1e-12


class TestLemma56:
    @given(tau=st.floats(0.1, 10.0), cost_a=st.floats(0.5, 20.0),
           cost_l=st.floats(0.5, 20.0), n=st.integers(50, 2000),
           eps=st.floats(0.01, 0.3))
    @settings(max_examples=80, deadline=None)
    def test_closed_form_ratio_minimizes_total_cost(self, tau, cost_a,
                                                    cost_l, n, eps):
        # Fix the intersection guarantee (|Qa| * |Ql| = product) and the
        # workload mix tau = lookups / advertises; sweep the ratio
        # r = |Ql| / |Qa| on a log grid around the closed form.  The
        # lemma's r* must be the grid's argmin.
        product = required_quorum_product(n, eps)
        n_advertise = 1000
        n_lookup = max(1, int(round(tau * n_advertise)))

        def cost_at(ratio: float) -> float:
            qa = math.sqrt(product / ratio)
            ql = math.sqrt(product * ratio)
            return total_cost(n_advertise, qa, cost_a, n_lookup, ql, cost_l)

        r_star = optimal_size_ratio(tau, cost_a, cost_l)
        grid = [r_star * math.exp(step / 4.0) for step in range(-12, 13)]
        best = min(grid, key=cost_at)
        # r* sits at the grid's center; the argmin must be it (up to
        # floating-point ties on neighboring grid points).
        assert cost_at(r_star) <= cost_at(best) * (1 + 1e-9)

    @given(tau=st.floats(0.1, 10.0), cost=st.floats(0.5, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_costs_balance_by_workload(self, tau, cost):
        # Equal per-node costs: the ratio reduces to 1/tau — advertise
        # rarely, advertise big.
        assert optimal_size_ratio(tau, cost, cost) == pytest.approx(1 / tau)


class TestLemma52MixAndMatch:
    TRIALS = 4000
    #: Two-sided false-alarm probability of one shape check.  A run makes
    #: 75 of them, so an honest simulator fails about once in 10^4 runs.
    ALPHA = 1e-6

    @staticmethod
    def _empirical_misses(n, qa, lookup_set, rng, trials):
        population = list(range(n))
        misses = 0
        for _ in range(trials):
            advertise = rng.sample(population, qa)
            if not lookup_set.intersection(advertise):
                misses += 1
        return misses

    @pytest.mark.slow
    @given(n=st.integers(30, 120), qa_frac=st.floats(0.15, 0.5),
           ql_frac=st.floats(0.1, 0.4), seed=st.integers(0, 2**16))
    # Expected miss 2.2e-4 (0.9 misses in 4000 trials); the comb draws 5.
    # A normal-approximation band rejects that; the binomial tail is 2e-3.
    @example(n=93, qa_frac=0.2421875, ql_frac=0.28125, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_structured_lookup_sets_match_hypergeometric(self, n, qa_frac,
                                                         ql_frac, seed):
        # Any fixed lookup set — contiguous block, evenly spaced comb, or
        # uniformly drawn — has the same miss probability against a
        # RANDOM advertise quorum: only |Ql| matters (Lemma 5.2).  The
        # miss count is Binomial(trials, expected) exactly, so test it
        # against that distribution's own tails.
        qa = max(1, int(qa_frac * n))
        ql = max(1, int(ql_frac * n))
        rng = random.Random(seed)
        expected = _hypergeometric_miss(qa, ql, n)
        spacing = max(1, n // ql)
        shapes = {
            "block": set(range(ql)),
            "comb": set((i * spacing) % n for i in range(ql)),
            "uniform": set(rng.sample(range(n), ql)),
        }
        for name, lookup_set in shapes.items():
            if len(lookup_set) != ql:  # comb may alias on tiny n
                continue
            misses = self._empirical_misses(n, qa, lookup_set, rng,
                                            self.TRIALS)
            lower = binom.cdf(misses, self.TRIALS, expected)
            upper = binom.sf(misses - 1, self.TRIALS, expected)
            assert min(lower, upper) >= self.ALPHA / 2, (
                f"{name} lookup set deviates: {misses}/{self.TRIALS} "
                f"misses vs p={expected}")

    def test_exact_model_is_structure_free_by_symmetry(self):
        # The exact formula depends only on sizes — spelled out here so
        # the empirical test above is clearly checking the simulator's
        # uniformity, not the formula.
        assert miss_probability_exact(5, 7, 40) == pytest.approx(
            _hypergeometric_miss(5, 7, 40))
        assert miss_probability_exact(7, 5, 40) == pytest.approx(
            _hypergeometric_miss(5, 7, 40))  # symmetric in qa/ql


from repro.analysis.leases import (  # noqa: E402
    lease_survival_probability,
    lease_ttl_for_churn,
    min_survival_for_epsilon,
    stale_read_probability_bound,
    stale_read_probability_exact,
)


class TestTimedLeases:
    """The timed-quorum lease analysis composed with Lemma 5.2."""

    @given(n=st.integers(8, 300), qa_frac=st.floats(0.05, 0.6),
           ql_frac=st.floats(0.05, 0.6), survival=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_bound_dominates_exact(self, n, qa_frac, ql_frac, survival):
        qa = max(1, int(qa_frac * n))
        ql = max(1, int(ql_frac * n))
        exact = stale_read_probability_exact(qa, ql, n, survival)
        bound = stale_read_probability_bound(qa, ql, n, survival)
        assert exact <= bound + 1e-9

    @given(n=st.integers(8, 300), qa_frac=st.floats(0.05, 0.6),
           ql_frac=st.floats(0.05, 0.6))
    @settings(max_examples=100, deadline=None)
    def test_full_survival_reduces_to_lemma_52(self, n, qa_frac, ql_frac):
        # Infinite TTL and no churn (survival = 1) collapse the lease
        # model onto the plain biquorum: the exact form becomes the
        # hypergeometric miss, the bound becomes exp(-qa*ql/n).
        qa = max(1, int(qa_frac * n))
        ql = max(1, int(ql_frac * n))
        assert stale_read_probability_exact(qa, ql, n, 1.0) == \
            pytest.approx(miss_probability_exact(qa, ql, n))
        assert stale_read_probability_bound(qa, ql, n, 1.0) == \
            pytest.approx(math.exp(-qa * ql / n))

    @given(n=st.integers(8, 300), qa_frac=st.floats(0.05, 0.6),
           ql_frac=st.floats(0.05, 0.6),
           lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_stale_probability_monotone_in_survival(self, n, qa_frac,
                                                    ql_frac, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        qa = max(1, int(qa_frac * n))
        ql = max(1, int(ql_frac * n))
        assert (stale_read_probability_exact(qa, ql, n, hi)
                <= stale_read_probability_exact(qa, ql, n, lo) + 1e-9)
        assert (stale_read_probability_bound(qa, ql, n, hi)
                <= stale_read_probability_bound(qa, ql, n, lo) + 1e-12)

    @given(rate=st.floats(1e-5, 1.0), survival=st.floats(0.5, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_ttl_inversion_honours_survival_floor(self, rate, survival):
        # Any age inside the derived lease keeps holder survival at or
        # above the floor (when the clamp didn't truncate the inversion).
        ttl = lease_ttl_for_churn(rate, survival, min_ttl=1e-9,
                                  max_ttl=1e12)
        age = ttl * 0.999999
        assert lease_survival_probability(age, rate, ttl) >= \
            survival - 1e-7

    @given(lo_rate=st.floats(1e-4, 1.0), factor=st.floats(1.0, 100.0),
           survival=st.floats(0.5, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_ttl_monotone_in_churn(self, lo_rate, factor, survival):
        kw = dict(min_ttl=1e-9, max_ttl=1e12)
        assert (lease_ttl_for_churn(lo_rate * factor, survival, **kw)
                <= lease_ttl_for_churn(lo_rate, survival, **kw) + 1e-12)

    @given(n=st.integers(8, 300), qa_frac=st.floats(0.1, 0.6),
           ql_frac=st.floats(0.1, 0.6), eps=st.floats(0.01, 0.5))
    @settings(max_examples=120, deadline=None)
    def test_min_survival_meets_epsilon(self, n, qa_frac, ql_frac, eps):
        qa = max(1, int(qa_frac * n))
        ql = max(1, int(ql_frac * n))
        p = min_survival_for_epsilon(qa, ql, n, eps)
        assert 0.0 <= p <= 1.0
        if p < 1.0:  # feasible: the bound at p must clear eps
            assert stale_read_probability_bound(qa, ql, n, p) <= \
                eps + 1e-9
