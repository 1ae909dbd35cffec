"""The kv kernel's Floyd draw against the score draw it replaced.

The kernel draws each write quorum as ``qa`` ids by Floyd's algorithm;
before, it kept the ``qa`` smallest of ``n`` uniform scores.  Both are
uniform ``qa``-subsets, but they read different stretches of the
stream, so every output moved.  ``equivalence`` (the harness) decides
whether the moved outputs still follow the old law: the law gate checks
the draw itself, the output gate compares the two kernels' reports over
``equivalence.SEEDS``, and each gate is shown to reject planted biases
of a stated size.  ``python tests/test_kv_equivalence.py`` prints the
verdict table.
"""

import functools

import numpy as np
import pytest

pytest.importorskip("scipy")

import equivalence as eq  # noqa: E402
from reference import kv_kernel as reference  # noqa: E402
from repro.experiments.workload import _draw_quorums  # noqa: E402

#: name -> the planted recipe, and the scenarios whose verdict it must
#: turn here (``main`` prints every scenario).  The off-by-one Floyd
#: keeps every row a set of ``qa`` distinct nodes, which is all the
#: outputs see, so only the law gate can catch it.  At the no-churn
#: point, whose reads see 1.9% stale, the 24 seeds take a ±10% stale
#: shift to p ~ 1e-4 only.
PLANTS = {
    "replacement": (eq.with_draw(eq.draw_with_replacement),
                    ("bench", "no-churn")),
    "stale+10%": (eq.with_miss_scale(1.1), ("bench",)),
    "stale-10%": (eq.with_miss_scale(0.9), ("bench",)),
    "rtt+10%": (eq.with_rtt_scale(1.1), ("no-churn",)),
}
#: plant -> the statistics that must reject it.
REJECTED_BY = {
    "replacement": ("stale_or_missed",),
    "stale+10%": ("stale_or_missed",),
    "stale-10%": ("stale_or_missed",),
    "rtt+10%": eq.QUANTILES,
}
DRAWS = {
    "floyd": _draw_quorums,
    "scores": reference.draw_quorums_by_scores,
    "replacement": eq.draw_with_replacement,
    "off-by-one": eq.draw_floyd_off_by_one,
}
#: (n, qa) -> rows of the exact subset chi-square: ~1 000 rows per subset
#: at C(6,3) = 20 and C(8,3) = 56, ~480 at C(10,4) = 210.
SUBSET_SIZES = {(6, 3): 20_000, (8, 3): 56_000, (10, 4): 100_000}
#: Rows of the (400, 35) marginal check: ~17 500 per node.  40 000 rows
#: give the off-by-one draw p ~ 1e-3 only; 200 000 give ~1e-37.
MARGINAL_ROWS = 200_000


@functools.lru_cache(maxsize=None)
def runs(recipe: str, scenario: str):
    recipes = {"old": eq.old_recipe, "new": eq.new_recipe,
               **{name: plant for name, (plant, _) in PLANTS.items()}}
    return eq.run_recipe(recipes[recipe], scenario)


def verdicts(recipe: str, scenario: str):
    return {v.statistic: v for v in eq.compare(runs("old", scenario),
                                                runs(recipe, scenario))}


@pytest.mark.parametrize("scenario", sorted(eq.SCENARIOS))
def test_counts_fixed_by_the_op_stream_do_not_move(scenario):
    assert eq.must_not_move(runs("old", scenario), runs("new", scenario)) == []


@pytest.mark.parametrize("scenario", sorted(eq.SCENARIOS))
def test_floyd_kernel_passes_the_output_gate(scenario):
    failed = [v for v in verdicts("new", scenario).values() if not v.passed]
    assert failed == []


@pytest.mark.parametrize("plant,scenario", [
    (plant, scenario) for plant, (_, scenarios) in sorted(PLANTS.items())
    for scenario in scenarios])
def test_output_gate_rejects_a_planted_bias(plant, scenario):
    got = verdicts(plant, scenario)
    assert [name for name in REJECTED_BY[plant] if got[name].passed] == []


@pytest.mark.parametrize("size", sorted(SUBSET_SIZES))
def test_law_gate_every_subset(size):
    n, qa = size
    rows = SUBSET_SIZES[size]
    p = {name: eq.subset_chi2(draw, n, qa, rows)
         for name, draw in DRAWS.items()}
    assert p["floyd"] >= eq.ALPHA and p["scores"] >= eq.ALPHA
    assert p["replacement"] < eq.ALPHA and p["off-by-one"] < eq.ALPHA


def test_law_gate_node_marginals_at_the_bench_sizes():
    got = {name: eq.marginal_chi2(DRAWS[name], 400, 35, MARGINAL_ROWS)
           for name in ("floyd", "replacement", "off-by-one")}
    assert got["floyd"] >= eq.ALPHA
    assert got["replacement"] < eq.ALPHA and got["off-by-one"] < eq.ALPHA


def test_floyd_rows_are_sets_at_every_block_edge():
    # 4 096-row blocks reuse one held-node table: rows on both sides of
    # a block edge, a last partial block, and qa in {1, n} stay sets.
    rng = np.random.Generator(np.random.Philox(key=3))
    for n, qa, count in ((400, 35, 9_000), (5, 5, 4_097), (7, 1, 4_096)):
        rows = _draw_quorums(rng, count, n, qa)
        assert rows.shape == (count, qa) and rows.max() < n
        assert not eq.has_duplicates(rows)


def main() -> None:
    print(f"ALPHA = {eq.ALPHA:g}; K = {len(eq.SEEDS)} seeds per scenario")
    print("\noutput gate, old = score draw (reference kernel), "
          "new = Floyd draw (kernel)")
    print(f"{'recipe':12s} {'scenario':10s} {'statistic':16s} {'test':6s} "
          f"{'old':>10s} {'new':>10s} {'p':>9s}  verdict")
    plants = ["new", *PLANTS, "off-by-one"]
    recipes = {**{name: plant for name, (plant, _) in PLANTS.items()},
               "off-by-one": eq.with_draw(eq.draw_floyd_off_by_one)}
    for name in plants:
        for scenario in eq.SCENARIOS:
            new = (runs(name, scenario) if name != "off-by-one"
                   else eq.run_recipe(recipes[name], scenario))
            for v in eq.compare(runs("old", scenario), new):
                print(f"{name:12s} {scenario:10s} {v.statistic:16s} "
                      f"{v.test:6s} {v.old:10.5g} {v.new:10.5g} "
                      f"{v.p_value:9.2g}  "
                      f"{'pass' if v.passed else 'REJECT'}")
        if name == "new":
            for scenario in eq.SCENARIOS:
                phi = eq.paired_dispersion(runs("old", scenario),
                                           runs("new", scenario),
                                           "stale_or_missed")
                print(f"{'':12s} {scenario:10s} paired dispersion of "
                      f"stale_or_missed: {phi:.2f}")
    print("\nlaw gate (p-values)")
    for (n, qa), rows in sorted(SUBSET_SIZES.items()):
        print(f"subsets C({n},{qa}) x {rows}: " + ", ".join(
            f"{name} {eq.subset_chi2(draw, n, qa, rows):.2g}"
            for name, draw in DRAWS.items()))
    print(f"marginals (400,35) x {MARGINAL_ROWS}: " + ", ".join(
        f"{name} {eq.marginal_chi2(draw, 400, 35, MARGINAL_ROWS):.2g}"
        for name, draw in DRAWS.items()))


if __name__ == "__main__":
    main()
