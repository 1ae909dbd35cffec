"""The batched kv kernel against its earlier per-key spelling.

``run_workload_batched`` decides each cas by one first-hit test, keeps
all keys' committed writes in one ledger and walks all reads together in
bounded blocks; ``reference.kv_kernel`` commits each key's writes one at
a time and decides a cas with a full single-read decision.  Both draw
the same stream, so every :class:`KVRunStats` field — the consistency
report included — must be equal, not close.
"""

import dataclasses
import math
import tracemalloc

import pytest

from reference import kv_kernel as reference
from repro.experiments.workload import (
    KVPointConfig,
    WorkloadSpec,
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


def _fields(stats):
    """Every field, with NaN made comparable."""
    return {name: ("nan" if isinstance(value, float) and math.isnan(value)
                   else value)
            for name, value in dataclasses.asdict(stats).items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_equals_per_key_reference(case):
    spec, config = CASES[case]
    got = run_workload_batched(spec, config)
    want = reference.run_workload_batched(spec, config)
    assert _fields(got) == _fields(want)


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
    # The reads walk in blocks whose survival table stays below the
    # write-quorum score chunk (4M scores), so the draw pass sets the
    # peak (~71 MiB traced here).  One unblocked walk over all 322k
    # reads of this spec builds a 322k x 35 float table and peaks at
    # ~161 MiB; the per-key kernel it replaced peaked at ~116 MiB.
    spec = WorkloadSpec(ops=350_000, seed=7, **BENCH_SPEC)
    tracemalloc.start()
    try:
        run_workload_batched(spec, BENCH_CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
