"""Property and unit tests for the quorum algebra and optimizer.

The hypothesis layer drives randomly generated expressions through the
algebraic identities (dual involution, dual-pair intersection) and the
optimizer invariants (valid distributions, load within [lower bound, 1]);
the unit layer pins the known optima (majority-5 = 3/5, 3x3 grid = 1/3),
the solver agreement, and the degenerate-input NaN conventions.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.quorum import (  # noqa: E402
    And,
    Choose,
    Node,
    NotIntersecting,
    Or,
    QuorumSystem,
    build_system,
    chain_system,
    choose,
    enumerate_quorums,
    grid_system,
    majority_system,
    solve_strategy,
)


def _choose2of3(es):
    return Choose(2, es)


exprs = st.recursive(
    st.integers(0, 5).map(Node),
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(And),
        st.lists(sub, min_size=2, max_size=3).map(Or),
        st.lists(sub, min_size=3, max_size=3).map(_choose2of3),
    ),
    max_leaves=8,
)


class TestAlgebraProperties:
    @given(e=exprs)
    @settings(max_examples=150, deadline=None)
    def test_dual_is_an_involution(self, e):
        assert e.dual().dual() == e

    @given(e=exprs)
    @settings(max_examples=100, deadline=None)
    def test_dual_preserves_elements(self, e):
        assert e.dual().elements() == e.elements()

    @given(e=exprs)
    @settings(max_examples=100, deadline=None)
    def test_expression_and_dual_always_intersect(self, e):
        reads = enumerate_quorums(e)
        writes = enumerate_quorums(e.dual())
        assert reads and writes
        for r in reads:
            for w in writes:
                assert r & w, f"{sorted(r)} misses {sorted(w)}"

    @given(e=exprs)
    @settings(max_examples=60, deadline=None)
    def test_default_system_construction_never_raises(self, e):
        qs = QuorumSystem(reads=e)
        assert qs.non_intersecting_pair() is None

    @given(e=exprs)
    @settings(max_examples=60, deadline=None)
    def test_enumerated_quorums_satisfy_is_quorum(self, e):
        for q in enumerate_quorums(e):
            assert e.is_quorum(q)


class TestOptimizerProperties:
    @given(e=exprs, fr=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_load_at_least_analytic_lower_bound(self, e, fr):
        sigma = solve_strategy(QuorumSystem(reads=e), read_fraction=fr)
        assert sigma.feasible
        assert sigma.load() >= sigma.load_lower_bound() - 1e-9
        assert sigma.load() <= 1.0 + 1e-9

    @given(e=exprs, fr=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_probabilities_are_distributions(self, e, fr):
        sigma = solve_strategy(QuorumSystem(reads=e), read_fraction=fr)
        assert math.isclose(sum(sigma.read_probs), 1.0, abs_tol=1e-6)
        assert math.isclose(sum(sigma.write_probs), 1.0, abs_tol=1e-6)
        assert all(p >= 0 for p in sigma.read_probs + sigma.write_probs)

    @given(e=exprs)
    @settings(max_examples=40, deadline=None)
    def test_samples_are_quorums(self, e):
        qs = QuorumSystem(reads=e)
        sigma = solve_strategy(qs)
        rng = random.Random(7)
        for _ in range(5):
            assert qs.is_read_quorum(sigma.sample_read(rng))
            assert qs.is_write_quorum(sigma.sample_write(rng))


class TestKnownOptima:
    def test_majority_five_load(self):
        sigma = solve_strategy(majority_system(range(5)))
        assert sigma.load() == pytest.approx(0.6, abs=1e-6)
        assert sigma.load_lower_bound() == pytest.approx(0.6, abs=1e-6)
        for load in sigma.node_loads().values():
            assert load == pytest.approx(0.6, abs=1e-6)

    def test_grid_three_by_three_load(self):
        sigma = solve_strategy(grid_system(range(9)))
        assert sigma.load() == pytest.approx(1 / 3, abs=1e-6)

    def test_numpy_mw_close_to_exact(self):
        for qs in (majority_system(range(5)), grid_system(range(4))):
            exact = solve_strategy(qs, solver="scipy").load()
            approx = solve_strategy(qs, solver="numpy").load()
            assert approx == pytest.approx(exact, abs=0.02)

    def test_network_objective_minimizes_quorum_size(self):
        sigma = solve_strategy(chain_system(range(5)), optimize="network")
        assert sigma.expected_read_size() == pytest.approx(2.0)
        assert sigma.network_load() <= 2.5

    def test_latency_objective_prefers_fast_quorums(self):
        lat = {0: 9.0, 1: 9.0, 2: 9.0, 3: 0.1, 4: 0.1}
        sigma = solve_strategy(chain_system(range(5)), optimize="latency",
                               latencies=lat)
        assert sigma.read_quorums[
            max(range(len(sigma.read_probs)),
                key=lambda i: sigma.read_probs[i])] == frozenset({3, 4})


class TestConstructionAndEdges:
    def test_choose_collapses_at_extremes(self):
        assert isinstance(choose(1, [0, 1, 2]), Or)
        assert isinstance(choose(3, [0, 1, 2]), And)

    def test_choose_majority_is_self_dual(self):
        e = Choose(2, [Node(0), Node(1), Node(2)])
        assert e.dual() == e

    def test_superset_quorums_are_pruned(self):
        e = Or([Node(0), And([Node(0), Node(1)])])
        assert enumerate_quorums(e) == [frozenset({0})]

    def test_non_intersecting_pair_raises(self):
        with pytest.raises(NotIntersecting):
            QuorumSystem(reads=Or([Node(0), Node(1)]),
                         writes=Or([Node(0), Node(1)]))

    def test_resilience(self):
        assert majority_system(range(5)).resilience() == 2
        assert chain_system(range(5)).resilience() == 1
        assert QuorumSystem(reads=Node(0)).resilience() == 0

    def test_single_node_system_load_is_one(self):
        sigma = solve_strategy(QuorumSystem(reads=Node(0)))
        assert sigma.load() == pytest.approx(1.0)

    def test_all_faulted_is_nan_not_crash(self):
        sigma = solve_strategy(majority_system(range(3)),
                               faulty={0, 1, 2})
        assert not sigma.feasible
        assert math.isnan(sigma.load())
        assert math.isnan(sigma.network_load())
        assert math.isnan(sigma.load_lower_bound())
        assert sigma.sample_read(random.Random(0)) is None
        assert all(math.isnan(v) for v in sigma.node_loads().values())

    def test_partial_faults_reroute_mass(self):
        sigma = solve_strategy(majority_system(range(5)), faulty={0})
        assert sigma.feasible
        assert all(0 not in q for q in sigma.read_quorums)
        assert sigma.load() >= 0.6 - 1e-9  # fewer quorums, never better

    def test_read_fraction_validation(self):
        qs = majority_system(range(3))
        with pytest.raises(ValueError, match="read_fraction"):
            solve_strategy(qs, read_fraction=1.5)
        with pytest.raises(ValueError, match="read_fraction"):
            solve_strategy(qs).load(read_fraction=-0.1)

    def test_unknown_objective_and_solver_rejected(self):
        qs = majority_system(range(3))
        with pytest.raises(ValueError, match="objective"):
            solve_strategy(qs, optimize="bogus")
        for solver in ("bogus", "pulp"):  # scipy and numpy are the solvers
            with pytest.raises(ValueError, match="solver"):
                solve_strategy(qs, solver=solver)

    def test_build_system_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown quorum system"):
            build_system("bogus", range(4))

    def test_grid_reshape_must_divide(self):
        with pytest.raises(ValueError, match="reshape"):
            grid_system(range(5), rows=2)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="more than"):
            enumerate_quorums(Or([Node(i) for i in range(4)]), limit=3)
