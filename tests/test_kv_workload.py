"""Tests for the open-loop kv workload engine and its batched kernel.

Determinism is the headline: the op stream is a pure function of the
spec, sweeps are bit-identical across worker counts, and the batched
kernel reproduces itself exactly.  Distributional checks (Zipf fit,
stale-rate vs the lease analysis) and the fault-campaign consistency
sweep ride along.
"""

import math

import numpy as np
import pytest

from repro.experiments import (
    KVPointConfig,
    WorkloadSpec,
    evaluate_kv_point,
    generate_operations,
    kv_sweep,
    run_workload_batched,
    run_workload_sequential,
    zipf_pmf,
)
from repro.experiments.fig_kv import KVSweepPoint
from repro.experiments.workload import OP_CAS, OP_GET, OP_PUT
from repro.faults import BUILTIN_CAMPAIGNS, run_kv_fault_campaign


class TestGenerator:
    def test_same_spec_same_stream(self):
        spec = WorkloadSpec(ops=5_000, seed=13)
        a, b = generate_operations(spec), generate_operations(spec)
        for name in ("times", "keys", "kinds", "origins"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_stream(self):
        a = generate_operations(WorkloadSpec(ops=1_000, seed=1))
        b = generate_operations(WorkloadSpec(ops=1_000, seed=2))
        assert not np.array_equal(a.keys, b.keys)

    def test_open_loop_rate(self):
        spec = WorkloadSpec(ops=20_000, arrival_rate=500.0, seed=3)
        ops = generate_operations(spec)
        assert np.all(np.diff(ops.times) >= 0)
        observed = spec.ops / float(ops.times[-1])
        assert observed == pytest.approx(500.0, rel=0.05)

    def test_mix_fractions(self):
        spec = WorkloadSpec(ops=50_000, read_fraction=0.7,
                            cas_fraction=0.2, seed=4)
        kinds = generate_operations(spec).kinds
        reads = np.mean(kinds == OP_GET)
        cas = np.mean(kinds == OP_CAS)
        assert reads == pytest.approx(0.7, abs=0.02)
        assert cas == pytest.approx(0.3 * 0.2, abs=0.01)
        assert np.mean(kinds == OP_PUT) == pytest.approx(
            0.3 * 0.8, abs=0.02)

    def test_zipf_chi_square(self):
        spec = WorkloadSpec(ops=200_000, n_keys=32, zipf_s=0.99, seed=5)
        keys = generate_operations(spec).keys
        counts = np.bincount(keys, minlength=spec.n_keys)
        expected = zipf_pmf(spec.n_keys, spec.zipf_s) * spec.ops
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 31 degrees of freedom: mean 31, sd sqrt(62); 5 sigma ~ 70.
        assert chi2 < 31 + 5 * math.sqrt(62)

    def test_zipf_pmf_normalized_and_skewed(self):
        pmf = zipf_pmf(64, 0.99)
        assert float(pmf.sum()) == pytest.approx(1.0)
        assert np.all(np.diff(pmf) < 0)


class TestBatchedKernel:
    def test_bit_reproducible(self):
        spec = WorkloadSpec(ops=20_000, seed=11, cas_fraction=0.05)
        config = KVPointConfig(n=300, churn_rate=0.01, lease_ttl=20.0)
        a = run_workload_batched(spec, config)
        b = run_workload_batched(spec, config)
        assert (a.stale_or_missed, a.found_reads, a.cas_successes,
                a.p50, a.p99, a.p999) == \
               (b.stale_or_missed, b.found_reads, b.cas_successes,
                b.p50, b.p99, b.p999)
        assert a.predicted_stale == b.predicted_stale

    def test_checker_clean(self):
        spec = WorkloadSpec(ops=50_000, seed=9, cas_fraction=0.1)
        config = KVPointConfig(n=400, churn_rate=0.02, lease_ttl=15.0)
        stats = run_workload_batched(spec, config)
        assert stats.report.clean
        assert stats.report.reads == stats.reads

    def test_cas_heavy_run_has_no_stale_cas(self):
        # A cas commits only on a view of the latest version, and every
        # commit takes latest + 1: the write side is clean by
        # construction, which is why check_kv_batch checks reads only.
        spec = WorkloadSpec(ops=5_000, seed=5, read_fraction=0.5,
                            cas_fraction=0.8)
        config = KVPointConfig(n=300, churn_rate=0.01, lease_ttl=20.0)
        stats = run_workload_batched(spec, config)
        assert stats.cas_successes > 0
        assert stats.report.stale_cas == 0
        assert stats.report.clean

    def test_stale_rate_tracks_lease_analysis(self):
        spec = WorkloadSpec(ops=200_000, seed=17, read_fraction=0.9)
        config = KVPointConfig(n=400, churn_rate=0.01, lease_ttl=30.0)
        stats = run_workload_batched(spec, config)
        assert math.isfinite(stats.predicted_stale)
        # Binomial sampling noise at ~180k reads is ~1e-3; allow 4x.
        hw = 4.0 * math.sqrt(stats.predicted_stale
                             * (1 - stats.predicted_stale)
                             / stats.eligible_reads)
        assert abs(stats.stale_fraction
                   - stats.predicted_stale) < hw + 1e-3

    def test_longer_lease_fewer_stale(self):
        spec = WorkloadSpec(ops=60_000, seed=21)
        short = run_workload_batched(
            spec, KVPointConfig(n=400, churn_rate=0.02, lease_ttl=5.0))
        long = run_workload_batched(
            spec, KVPointConfig(n=400, churn_rate=0.02, lease_ttl=60.0))
        assert long.stale_fraction < short.stale_fraction

    def test_no_churn_reduces_to_lemma_52(self):
        # Without churn every holder survives, so the only staleness
        # left is probabilistic quorum non-intersection: the predicted
        # rate must equal the plain hypergeometric miss of Lemma 5.2.
        from repro.analysis import miss_probability_exact
        spec = WorkloadSpec(ops=30_000, seed=23)
        config = KVPointConfig(n=400, churn_rate=0.0, lease_ttl=1e9)
        stats = run_workload_batched(spec, config)
        qa, ql = config.sizes()
        assert stats.predicted_stale == pytest.approx(
            miss_probability_exact(qa, ql, 400))
        assert stats.stale_fraction == pytest.approx(
            stats.predicted_stale, abs=5e-3)

    def test_full_quorums_never_stale(self):
        spec = WorkloadSpec(ops=10_000, seed=23)
        stats = run_workload_batched(
            spec, KVPointConfig(n=120, quorum_a=120, quorum_l=120,
                                churn_rate=0.0, lease_ttl=1e9))
        assert stats.stale_or_missed == 0
        assert stats.availability == 1.0


class TestBackendParity:
    def test_same_op_stream_both_backends(self):
        # Both backends replay generate_operations(spec) verbatim, so
        # the op mix must agree exactly however the ops are executed.
        spec = WorkloadSpec(ops=300, n_keys=8, seed=31, cas_fraction=0.1,
                            arrival_rate=20.0)
        batched = run_workload_batched(
            spec, KVPointConfig(n=120, lease_ttl=50.0))
        point = KVSweepPoint(backend="sequential", strategy="random",
                             ttl=50.0, rate=20.0, ops=300, n=120,
                             n_keys=8, read_fraction=spec.read_fraction,
                             cas_fraction=0.1, zipf_s=spec.zipf_s,
                             churn_rate=0.0, epsilon=0.05,
                             min_survival=0.9)
        sequential = evaluate_kv_point(point, seed=spec.seed)
        assert sequential.ops == batched.ops == 300
        assert sequential.reads == batched.reads
        assert sequential.writes == batched.writes
        assert sequential.cas_attempts == batched.cas_attempts

    def test_sequential_checker_clean(self):
        point = KVSweepPoint(backend="sequential", strategy="random",
                             ttl=40.0, rate=20.0, ops=200, n=100,
                             n_keys=8, read_fraction=0.8,
                             cas_fraction=0.1, zipf_s=0.99,
                             churn_rate=0.0, epsilon=0.05,
                             min_survival=0.9)
        stats = evaluate_kv_point(point, seed=3)
        assert stats.report.clean


class TestSweepDeterminism:
    @staticmethod
    def _sweep(jobs):
        return kv_sweep(backend="batched", ttls=(10.0, 40.0),
                        rates=(2000.0,), ops=20_000, n=300, n_keys=32,
                        churn_rate=0.01, reps=2, jobs=jobs, seed=7)

    def test_jobs_do_not_change_results(self):
        one = self._sweep(jobs=1)
        four = self._sweep(jobs=4)
        assert len(one) == len(four) == 2
        for a, b in zip(one, four):
            assert a.point == b.point
            assert (a.stale, a.stale_hw, a.predicted, a.p50, a.p99,
                    a.availability) == \
                   (b.stale, b.stale_hw, b.predicted, b.p50, b.p99,
                    b.availability)
            assert a.violations == b.violations == 0


class TestFaultCampaigns:
    @pytest.mark.parametrize("name", sorted(BUILTIN_CAMPAIGNS))
    def test_checker_clean_under_campaign(self, name):
        rep = run_kv_fault_campaign(campaign=name, n=60, n_ops=80,
                                    n_keys=6, seed=11)
        assert rep.clean, rep.consistency.lines()
        assert rep.stats.ops == 80

    def test_adaptive_ttl_responds_to_campaign_churn(self):
        quiet = run_kv_fault_campaign(campaign="smoke", n=60, n_ops=40,
                                      seed=5)
        stormy = run_kv_fault_campaign(campaign="stress", n=60, n_ops=40,
                                       seed=5)
        assert stormy.lease_ttl < quiet.lease_ttl

    def test_report_lines_render(self):
        rep = run_kv_fault_campaign(campaign="smoke", n=60, n_ops=40,
                                    seed=5, watch=True)
        text = "\n".join(rep.lines())
        assert "kv workload" in text and "leases" in text
        assert rep.watch_clean is True
