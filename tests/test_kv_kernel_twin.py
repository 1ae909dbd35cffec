"""The batched kv kernel against its earlier per-key spelling.

``run_workload_batched`` decides each cas by one first-hit test, keeps
all keys' committed writes in one ledger and walks all reads together in
bounded blocks; ``reference.kv_kernel`` commits each key's writes one at
a time and decides a cas with a full single-read decision.  Both draw
the same stream, so every :class:`KVRunStats` field — the consistency
report included — must be equal, not close.  With the score draw the
kernel used before Floyd's (``draw=reference.draw_quorums_by_scores``),
the reference reproduces that earlier kernel, pinned by its digests.
"""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from reference import kv_kernel as reference
from repro.experiments.workload import (
    KVPointConfig,
    WorkloadSpec,
    _draw_quorums,
    run_workload_batched,
)

#: The bench's kv_kernel point (``repro kv``'s default cell).
BENCH_SPEC = dict(n_keys=128, read_fraction=0.92, cas_fraction=0.05,
                  arrival_rate=2000.0)
BENCH_CONFIG = KVPointConfig(n=400, churn_rate=0.01, lease_ttl=30.0)
CAS_HEAVY = KVPointConfig(n=30, quorum_a=5, quorum_l=4, churn_rate=0.2,
                          lease_ttl=2.0)

CASES = {
    **{f"bench-seed{seed}": (WorkloadSpec(ops=40_000, seed=seed,
                                          **BENCH_SPEC), BENCH_CONFIG)
       for seed in (7, 11, 23)},
    **{f"cas-heavy-seed{seed}": (
        WorkloadSpec(ops=8_000, n_keys=8, read_fraction=0.5,
                     cas_fraction=0.8, seed=seed), CAS_HEAVY)
       for seed in (1, 2, 3)},
    "all-cas": (WorkloadSpec(ops=4_000, n_keys=4, read_fraction=0.0,
                             cas_fraction=1.0, seed=5), CAS_HEAVY),
    "all-get": (WorkloadSpec(ops=4_000, n_keys=4, read_fraction=1.0,
                             seed=5), CAS_HEAVY),
    "one-key": (WorkloadSpec(ops=6_000, n_keys=1, read_fraction=0.6,
                             cas_fraction=0.5, seed=6),
                KVPointConfig(n=60, churn_rate=0.1, lease_ttl=3.0)),
    "no-churn": (WorkloadSpec(ops=10_000, n_keys=16, read_fraction=0.8,
                              cas_fraction=0.3, seed=8),
                 KVPointConfig(n=100, churn_rate=0.0)),
    "infinite-lease": (WorkloadSpec(ops=10_000, n_keys=16,
                                    read_fraction=0.8, cas_fraction=0.3,
                                    seed=9),
                       KVPointConfig(n=100, churn_rate=0.05,
                                     lease_ttl=math.inf)),
    "full-quorums": (WorkloadSpec(ops=6_000, n_keys=16, read_fraction=0.8,
                                  cas_fraction=0.3, seed=9),
                     KVPointConfig(n=40, quorum_a=40, quorum_l=40,
                                   churn_rate=0.05, lease_ttl=1.0)),
}


#: sha256 of the earlier (score-draw) kernel's ``KVRunStats`` on two
#: cases, computed by that kernel.
SCORE_DRAW_DIGESTS = {
    "bench-seed7":
        "dbbd4f1c955e6544b331be9a27009634a392ac395ab8cf2b82f0eef34130dcb0",
    "cas-heavy-seed1":
        "95ab8d8ff3f4152f357b8a3f896d5bcd4fa0610fb9ad5bddc6751701cde8ff00",
}


def _fields(stats):
    """Every field, with NaN made comparable."""
    return {name: ("nan" if isinstance(value, float) and math.isnan(value)
                   else value)
            for name, value in dataclasses.asdict(stats).items()}


def _digest(stats):
    return hashlib.sha256(
        json.dumps(_fields(stats), sort_keys=True).encode()).hexdigest()


def _rows_permuted(rng, count, n, qa):
    """The kernel's draw with each row's slots shuffled (on a stream of
    their own, so the kernel's stream does not move)."""
    quorums = _draw_quorums(rng, count, n, qa)
    order = np.random.default_rng(0).permuted(
        np.tile(np.arange(qa), (count, 1)), axis=1)
    return np.take_along_axis(quorums, order, axis=1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_equals_per_key_reference(case):
    spec, config = CASES[case]
    got = run_workload_batched(spec, config)
    want = reference.run_workload_batched(spec, config)
    assert _fields(got) == _fields(want)


@pytest.mark.parametrize("case", sorted(SCORE_DRAW_DIGESTS))
def test_score_draw_reproduces_the_earlier_kernel(case):
    got = reference.run_workload_batched(
        *CASES[case], draw=reference.draw_quorums_by_scores)
    assert _digest(got) == SCORE_DRAW_DIGESTS[case]


@pytest.mark.parametrize("case", ["bench-seed7", "cas-heavy-seed1",
                                  "one-key", "full-quorums"])
def test_slot_order_within_a_row_reaches_no_output(case):
    # Floyd's rows are uniform sets but not uniformly ordered; every
    # consumer treats a row as a set, so any order gives the same run.
    spec, config = CASES[case]
    got = reference.run_workload_batched(spec, config, draw=_rows_permuted)
    assert _fields(got) == _fields(run_workload_batched(spec, config))


def test_cases_reach_every_branch():
    # The twin cases must exercise what the kernel decides: failed and
    # committed cas, reads that miss, reads that return a stale version,
    # and a walk of more than one block at the bench spec.
    stats = {case: run_workload_batched(*CASES[case]) for case in CASES}
    heavy = stats["cas-heavy-seed1"]
    assert 0 < heavy.cas_successes < heavy.cas_attempts
    assert heavy.missed_reads > 0
    assert heavy.stale_or_missed > heavy.missed_reads
    assert stats["all-cas"].reads == 0 and stats["all-cas"].cas_attempts
    assert stats["all-get"].eligible_reads == 0
    assert stats["bench-seed7"].reads > 32_768


def test_full_spec_peak_memory_is_bounded():
    # The write quorums are drawn as 4 096-row Floyd blocks, so the peak
    # (65.0 MiB traced here) is set after the depth walk, where the
    # per-read outcome arrays and the latency draws are live at once.
    # The bound is that plus 5 MiB: the score draw it replaced peaked
    # at 71 MiB inside the draw, one unblocked walk over all 322k reads
    # of this spec (a 322k x 35 float table) at ~161 MiB, and the
    # per-key kernel before that at ~116 MiB.
    spec = WorkloadSpec(ops=350_000, seed=7, **BENCH_SPEC)
    tracemalloc.start()
    try:
        run_workload_batched(spec, BENCH_CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70 * 2 ** 20
