"""Two-sample equivalence: does a changed draw still follow the same law?

A change that keeps the kv kernel's law but draws it from another
stretch of the Philox stream moves every output, so field-for-field
equality cannot pin it.  This harness pins it by distribution instead.
It runs an old and a new recipe over the same ``SEEDS`` on each
scenario, and compares what they report with a test fit to each
statistic's type:

- counts fixed by the op stream (``ops``, ``reads``, ``writes``,
  ``cas_attempts``, ``eligible_reads``) must be equal seed by seed;
- ``found_reads``, ``missed_reads``, ``stale_or_missed`` and
  ``cas_successes`` get an exact conditional test on the seed-paired
  differences (:func:`paired_count_test`);
- the per-run latency quantiles ``p50``, ``p99`` and ``p999`` get an
  exact two-sample Kolmogorov–Smirnov test over the seeds.

Every check has one false-alarm budget, ``ALPHA`` (as
``TestLemma52MixAndMatch``).  The counts are not tested as pooled
binomials: reads of one version share its quorum, and when all of a
version's holders are gone every read of it misses, so a run's counts
spread wider than binomial.  :func:`paired_dispersion` measures it, the
variance of the seed-paired differences over what two independent
binomial counts would give: over 60 seeds it read 2.8 for the misses of
the cas-heavy point, which would turn a nominal 1e-6 into about 3e-3.
The paired test takes the seed as its unit and needs no such
assumption; both sides of a seed share its op stream and churn draws.

The law gate (:func:`subset_chi2`, :func:`marginal_chi2`) checks a
quorum draw itself: a chi-square over every ``C(n, qa)`` subset at small
sizes, and over node marginals with a no-duplicate check at the bench's
sizes.  The kernel's outputs depend on how many slots survive, not on
which nodes hold them (reads use the hypergeometric miss table, churn
is iid per node), so the law gate is the sharp check, and the output
gate's power is stated by the planted biases below.

``python tests/test_kv_equivalence.py`` prints the verdict table.
"""

import dataclasses
import itertools
import math
from contextlib import contextmanager
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
from scipy import stats as sps

from reference import kv_kernel as reference
from repro.experiments import workload
from repro.experiments.workload import (
    KVPointConfig,
    KVRunStats,
    WorkloadSpec,
)
from test_kv_kernel_twin import BENCH_CONFIG, BENCH_SPEC, CAS_HEAVY

#: Two-sided false-alarm probability of one check.
ALPHA = 1e-6
#: Seeds per scenario.  The paired count test cannot go below
#: ``2 / 2^K``: K = 24 puts that at 1.2e-7 < ALPHA, with room for a
#: pair or two against the trend of a planted bias.
SEEDS = tuple(range(101, 125))

MUST_NOT_MOVE = ("ops", "reads", "writes", "cas_attempts", "eligible_reads")
COUNTS = {  # count -> the trials it is a count of
    "found_reads": "eligible_reads",
    "missed_reads": "eligible_reads",
    "stale_or_missed": "eligible_reads",
    "cas_successes": "cas_attempts",
}
QUANTILES = ("p50", "p99", "p999")

#: name -> (spec for a seed, config)
SCENARIOS: Dict[str, Tuple[Callable[[int], WorkloadSpec], KVPointConfig]] = {
    "bench": (lambda seed: WorkloadSpec(ops=40_000, seed=seed, **BENCH_SPEC),
              BENCH_CONFIG),
    "cas-heavy": (lambda seed: WorkloadSpec(
        ops=8_000, n_keys=8, read_fraction=0.5, cas_fraction=0.8,
        seed=seed), CAS_HEAVY),
    "no-churn": (lambda seed: WorkloadSpec(
        ops=10_000, n_keys=16, read_fraction=0.8, cas_fraction=0.3,
        seed=seed), KVPointConfig(n=100, churn_rate=0.0)),
}

Recipe = Callable[[WorkloadSpec, KVPointConfig], KVRunStats]
Draw = Callable[[np.random.Generator, int, int, int], np.ndarray]


# -- recipes ------------------------------------------------------------------

def old_recipe(spec: WorkloadSpec, config: KVPointConfig) -> KVRunStats:
    """The earlier kernel: the score draw, through the per-key reference."""
    return reference.run_workload_batched(
        spec, config, draw=reference.draw_quorums_by_scores)


def new_recipe(spec: WorkloadSpec, config: KVPointConfig) -> KVRunStats:
    return workload.run_workload_batched(spec, config)


@contextmanager
def _patched(name: str, value):
    saved = getattr(workload, name)
    setattr(workload, name, value)
    try:
        yield
    finally:
        setattr(workload, name, saved)


def with_draw(draw: Draw) -> Recipe:
    """The kernel with its write-quorum draw swapped for ``draw``."""
    def recipe(spec, config):
        with _patched("_draw_quorums", draw):
            return workload.run_workload_batched(spec, config)
    return recipe


def with_miss_scale(factor: float) -> Recipe:
    """The kernel with every miss probability past ``s = 0`` scaled by
    ``factor``: the rate of reads that miss the newest version moves by
    that factor, everything else stays."""
    miss_table = workload._miss_table

    def scaled(n, ql):
        table = miss_table(n, ql)
        table[1:] = np.minimum(table[1:] * factor, 1.0)
        return table

    def recipe(spec, config):
        with _patched("_miss_table", scaled):
            return workload.run_workload_batched(spec, config)
    return recipe


def with_rtt_scale(factor: float) -> Recipe:
    """The kernel with a per-contact latency scale ``factor`` times the
    scenario's: a latency bias no count sees."""
    def recipe(spec, config):
        return workload.run_workload_batched(
            spec, dataclasses.replace(config, rtt=config.rtt * factor))
    return recipe


# -- planted draws ------------------------------------------------------------

def draw_with_replacement(rng, count, n, qa):
    """``qa`` independent uniform ids per row: duplicates allowed."""
    return rng.integers(0, n, size=(count, qa), dtype=np.min_scalar_type(n))


def draw_floyd_off_by_one(rng, count, n, qa):
    """Floyd's algorithm with step ``i`` drawing on ``[0, n - qa + i)``
    instead of ``[0, n - qa + i]``: rows stay duplicate-free, but the law
    over subsets is not uniform."""
    quorums = rng.integers(0, np.arange(n - qa, n), size=(count, qa),
                           dtype=np.min_scalar_type(n))
    for lo in range(0, count, workload._FLOYD_ROWS):
        rows = quorums[lo:lo + workload._FLOYD_ROWS]
        base = np.arange(len(rows)) * n
        taken = np.zeros(len(rows) * n, dtype=bool)
        for i in range(qa):
            slot = rows[:, i]
            slot[taken[base + slot]] = n - qa + i
            taken[base + slot] = True
    return quorums


# -- the output gate ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Verdict:
    statistic: str
    test: str
    old: float
    new: float
    p_value: float

    @property
    def passed(self) -> bool:
        return self.p_value >= ALPHA


def run_recipe(recipe: Recipe, scenario: str,
               seeds: Sequence[int] = SEEDS) -> List[KVRunStats]:
    spec_for, config = SCENARIOS[scenario]
    return [recipe(spec_for(seed), config) for seed in seeds]


def _value(stats: KVRunStats, name: str) -> float:
    return getattr(stats, name)


def _rate(runs: Sequence[KVRunStats], name: str, trials: str) -> float:
    return (sum(_value(s, name) for s in runs)
            / max(1, sum(_value(s, trials) for s in runs)))


def paired_count_test(old: Sequence[int], new: Sequence[int]) -> float:
    """Two-sided exact p-value of the seed-paired count differences.

    Under the null the two recipes' runs at one seed are exchangeable,
    so given each difference's size, its sign is a fair coin.  The sum
    of the signed differences then has a known law over the ``2^K``
    sign patterns, computed exactly by convolution: a conditional test
    that assumes nothing about how the reads inside a run depend on
    each other.  The smallest p-value it can give is ``2 / 2^K``.
    """
    diffs = [abs(b - a) for a, b in zip(old, new) if b != a]
    observed = abs(sum(new) - sum(old))
    total = sum(diffs)
    ways = np.zeros(2 * total + 1)   # ways[total + s]: patterns summing to s
    ways[total] = 1.0
    for d in diffs:
        ways = np.roll(ways, d) + np.roll(ways, -d)
    sums = np.arange(-total, total + 1)
    return float(ways[np.abs(sums) >= observed].sum() / 2.0 ** len(diffs))


def ks_test(old: Sequence[float], new: Sequence[float]) -> float:
    """Exact two-sample Kolmogorov–Smirnov p-value."""
    return float(sps.ks_2samp(old, new, method="exact").pvalue)


def must_not_move(old: Sequence[KVRunStats],
                  new: Sequence[KVRunStats]) -> List[Tuple[str, int, int]]:
    """Every (field, old, new) of a fixed count that differs at a seed."""
    return [(name, _value(a, name), _value(b, name))
            for a, b in zip(old, new) for name in MUST_NOT_MOVE
            if _value(a, name) != _value(b, name)]


def compare(old: Sequence[KVRunStats],
            new: Sequence[KVRunStats]) -> List[Verdict]:
    """The count and latency verdicts of two recipes' runs."""
    verdicts = []
    for name, trials in COUNTS.items():
        if not any(_value(s, trials) for s in [*old, *new]):
            continue
        verdicts.append(Verdict(
            name, "paired", _rate(old, name, trials),
            _rate(new, name, trials),
            paired_count_test([_value(s, name) for s in old],
                              [_value(s, name) for s in new])))
    for name in QUANTILES:
        a = [_value(s, name) for s in old]
        b = [_value(s, name) for s in new]
        verdicts.append(Verdict(name, "ks", float(np.median(a)),
                                float(np.median(b)), ks_test(a, b)))
    return verdicts


def paired_dispersion(old: Sequence[KVRunStats], new: Sequence[KVRunStats],
                      name: str) -> float:
    """Variance of the seed-paired count differences over the variance
    two independent binomial counts would give (1: the nominal size)."""
    trials = COUNTS[name]
    diffs, var = 0.0, 0.0
    for a, b in zip(old, new):
        x, y = _value(a, name), _value(b, name)
        n = _value(a, trials) + _value(b, trials)
        if n == 0:
            continue
        p = (x + y) / n
        diffs += (y - x) ** 2
        var += (_value(a, trials) + _value(b, trials)) * p * (1.0 - p)
    return diffs / var if var else math.nan


# -- the law gate -------------------------------------------------------------

def _rows(draw: Draw, n: int, qa: int, rows: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.asarray(draw(rng, rows, n, qa), dtype=np.int64)


def has_duplicates(quorums: np.ndarray) -> bool:
    ordered = np.sort(quorums, axis=1)
    return bool(np.any(ordered[:, 1:] == ordered[:, :-1]))


def subset_chi2(draw: Draw, n: int, qa: int, rows: int,
                seed: int = 1) -> float:
    """p-value of a chi-square over all ``C(n, qa)`` subsets against the
    uniform law; 0 when a row is not a subset (a repeated id)."""
    quorums = _rows(draw, n, qa, rows, seed)
    if has_duplicates(quorums):
        return 0.0
    index = {subset: i for i, subset in
             enumerate(itertools.combinations(range(n), qa))}
    cells = np.fromiter((index[tuple(row)] for row in
                         np.sort(quorums, axis=1).tolist()),
                        dtype=np.int64, count=rows)
    counts = np.bincount(cells, minlength=len(index))
    expected = rows / len(index)
    stat = float(((counts - expected) ** 2).sum() / expected)
    return float(sps.chi2.sf(stat, len(index) - 1))


def marginal_chi2(draw: Draw, n: int, qa: int, rows: int,
                  seed: int = 1) -> float:
    """p-value of a chi-square over the node marginals; 0 when a row
    repeats an id.

    A row holds each node with probability ``p = qa / n``, and a row's
    indicators are negatively correlated (they sum to ``qa``), so the
    statistic is scaled to ``chi2(n - 1)`` by ``(n - 1) / (n p (1 - p))``
    rather than the multinomial ``1 / p``.
    """
    quorums = _rows(draw, n, qa, rows, seed)
    if has_duplicates(quorums):
        return 0.0
    counts = np.bincount(quorums.reshape(-1), minlength=n)
    p = qa / n
    stat = float(((counts - rows * p) ** 2).sum()
                 * (n - 1) / (rows * p * (1.0 - p) * n))
    return float(sps.chi2.sf(stat, n - 1))
