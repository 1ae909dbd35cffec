"""The batched kv kernel in its earlier spelling, kept as an oracle.

``repro.experiments.workload.run_workload_batched`` decides a cas by one
first-hit test against the latest commit, keeps every key's committed
writes in one key-major ledger, and walks all keys' reads together in
bounded blocks.  The form here is the one it replaced: a loop over the
keys that commits each key's writes one at a time into per-node
``node_version`` / ``node_death`` arrays, decides each cas with a full
single-read decision over that slot state (:func:`decide_single`),
orders each key's slots with its own ``lexsort`` for overwrite times,
and walks each key's reads on their own.  Both draw the same Philox
stream in the same order, so they must agree field for field
(:class:`~repro.experiments.workload.KVRunStats`, the consistency report
included).  The churn deaths and the analytic prediction keep their
earlier forms here too (one global ``searchsorted`` over composite
keys; the mixture over whole arrays).

The write quorums come from the kernel's own ``_draw_quorums`` unless
``draw=`` passes another recipe.  :func:`draw_quorums_by_scores` is the
draw Floyd's replaced; with it, this kernel reproduces the earlier
kernel's outputs, and ``tests/equivalence.py`` runs it as the old side
of the two-sample comparison.
"""

import math
from typing import Callable, List, Optional

import numpy as np

from repro.experiments.workload import (
    KERNEL_STREAM,
    OP_CAS,
    OP_GET,
    OP_PUT,
    KVPointConfig,
    KVRunStats,
    WorkloadSpec,
    _draw_quorums,
    _miss_table,
    generate_operations,
)
from repro.services.consistency import check_kv_batch
from repro.sim.rng import derive_stream_seed


def first_churn_after(nodes: np.ndarray, t: np.ndarray,
                      churn_comp: np.ndarray, span: float) -> np.ndarray:
    """Per-node time of the first churn event strictly after ``t[i]``."""
    idx = np.searchsorted(churn_comp, nodes * span + t, side="right")
    out = np.full(len(nodes), np.inf)
    valid = idx < len(churn_comp)
    if np.any(valid):
        comp = churn_comp[idx[valid]]
        same_node = comp < (nodes[valid] + 1) * span
        times = comp - nodes[valid] * span
        out_valid = np.where(same_node, times, np.inf)
        out[valid] = out_valid
    return out


def predicted_stale(ages: np.ndarray, expired: np.ndarray, qa: int,
                    churn_rate: float, miss: np.ndarray) -> float:
    """Mean exact ``P(miss the newest version's surviving holders)``."""
    if len(ages) == 0:
        return math.nan
    p = np.where(expired, 0.0, np.exp(-churn_rate * ages))
    m = miss[:qa + 1].copy()

    def mixture(prob: np.ndarray, mvals: np.ndarray) -> np.ndarray:
        comp = 1.0 - prob
        pmf = comp ** qa
        acc = pmf * mvals[0]
        ratio = np.divide(prob, comp, out=np.zeros_like(prob),
                          where=comp > 0.0)
        for k in range(1, qa + 1):
            pmf = pmf * ratio * ((qa - k + 1) / k)
            acc = acc + pmf * mvals[k]
        return acc

    total = np.empty(len(p))
    lo = p <= 0.5
    total[lo] = mixture(p[lo], m)
    total[~lo] = mixture(1.0 - p[~lo], m[::-1])
    return float(total.mean())


def draw_quorums_by_scores(rng: np.random.Generator, count: int, n: int,
                          qa: int) -> np.ndarray:
    """The write-quorum draw the kernel used before Floyd's: each row
    keeps the ``qa`` smallest of ``n`` uniform scores, drawn in chunks
    of at most 4M scores.  The same law as ``_draw_quorums`` on another
    stretch of the stream, for the two-sample harness."""
    quorums = np.empty((count, qa), dtype=np.min_scalar_type(n))
    chunk = max(1, min(count, 4_000_000 // max(n, 1)))
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        scores = rng.random((hi - lo, n))
        quorums[lo:hi] = np.argpartition(scores, qa - 1, axis=1)[:, :qa]
    return quorums


def run_workload_batched(spec: WorkloadSpec,
                         config: Optional[KVPointConfig] = None,
                         draw: Callable[..., np.ndarray] = _draw_quorums,
                         ) -> KVRunStats:
    """The per-key kernel: the same draws, decided one key at a time.

    ``draw(rng, count, n, qa)`` picks the write quorums, the kernel's own
    draw unless a test passes another recipe."""
    config = config or KVPointConfig()
    ops = generate_operations(spec)
    n = config.n
    qa, ql = config.sizes()
    ttl = config.lease_ttl
    if ttl <= 0:
        raise ValueError("lease_ttl must be positive")
    rng = np.random.Generator(np.random.Philox(
        key=derive_stream_seed(spec.seed, KERNEL_STREAM)))
    horizon = float(ops.times[-1]) + 1.0

    span = horizon * 1.000001 + 1.0
    counts = rng.poisson(config.churn_rate * horizon, size=n)
    total_events = int(counts.sum())
    event_nodes = np.repeat(np.arange(n), counts)
    event_times = rng.random(total_events) * horizon
    churn_comp = np.sort(event_nodes * span + event_times)

    is_write = ops.kinds != OP_GET
    write_ordinal = np.cumsum(is_write) - 1
    n_write_ops = int(is_write.sum())
    write_quorums = draw(rng, n_write_ops, n, qa).astype(np.int64)
    outcome_u = rng.random(len(ops))
    lat_query_u = rng.random(len(ops))
    lat_store_u = rng.random(len(ops))

    miss = _miss_table(n, ql)

    read_version = np.full(len(ops), -1, dtype=np.int64)
    read_latest = np.full(len(ops), -1, dtype=np.int64)
    read_expiry = np.full(len(ops), np.inf)
    pred_age = np.full(len(ops), np.nan)
    pred_expired = np.zeros(len(ops), dtype=bool)
    stored = np.zeros(len(ops), dtype=bool)

    cas_attempts = cas_successes = 0

    write_ops = np.flatnonzero(is_write)
    w_times = np.repeat(ops.times[write_ops], qa)
    flat_nodes = write_quorums.reshape(-1)
    all_deaths = np.minimum(
        first_churn_after(flat_nodes, w_times, churn_comp, span),
        w_times + ttl).reshape(n_write_ops, qa)

    def decide_single(op: int, latest_counter: int,
                      node_version: np.ndarray,
                      node_death: np.ndarray) -> int:
        """Single-read decision (a cas's view) on slot state."""
        if latest_counter < 0:
            return -1
        t = float(ops.times[op])
        slot_order = np.argsort(-node_version, kind="stable")
        versions = node_version[slot_order]
        valid = int(np.count_nonzero(versions >= 0))
        if valid == 0:
            return -1
        versions = versions[:valid]
        cum = np.cumsum(node_death[slot_order[:valid]] > t)
        bounds = np.append(np.flatnonzero(np.diff(versions)), valid - 1)
        hit = np.flatnonzero(outcome_u[op] >= miss[cum[bounds]])
        return int(versions[bounds[hit[0]]]) if len(hit) else -1

    order = np.argsort(ops.keys, kind="stable")
    sorted_keys = ops.keys[order]
    group_bounds = np.flatnonzero(np.diff(sorted_keys)) + 1

    for group in np.split(order, group_bounds):
        group_kinds = ops.kinds[group]
        wpos = np.flatnonzero(group_kinds != OP_GET)
        wops = group[wpos]

        if np.any(group_kinds[wpos] == OP_CAS):
            node_version = np.full(n, -1, dtype=np.int64)
            node_death = np.full(n, -np.inf)
            committed: List[int] = []
            latest = -1
            for op in wops:
                op = int(op)
                w = int(write_ordinal[op])
                if ops.kinds[op] == OP_CAS:
                    cas_attempts += 1
                    seen = decide_single(op, latest, node_version,
                                         node_death)
                    if seen != latest:
                        continue
                    cas_successes += 1
                committed.append(w)
                latest += 1
                node_version[write_quorums[w]] = latest
                node_death[write_quorums[w]] = all_deaths[w]
                stored[op] = True
            cw = np.asarray(committed, dtype=np.int64)
            cw_tw = ops.times[write_ops[cw]] if len(cw) else np.empty(0)
        else:
            cw = write_ordinal[wops]
            cw_tw = ops.times[wops]
            stored[wops] = True

        ridx = group[group_kinds == OP_GET]
        n_writes_k = len(cw)
        if len(ridx) == 0 or n_writes_k == 0:
            continue
        tr = ops.times[ridx]
        s = np.searchsorted(cw_tw, tr, side="right")
        elig = np.flatnonzero(s >= 1)
        newest = s[elig] - 1
        read_latest[ridx[elig]] = newest
        pred_age[ridx[elig]] = tr[elig] - cw_tw[newest]
        pred_expired[ridx[elig]] = tr[elig] >= cw_tw[newest] + ttl

        quorums_k = write_quorums[cw]
        flat = quorums_k.reshape(-1)
        fw = np.repeat(np.arange(n_writes_k), qa)
        by_node = np.lexsort((fw, flat))
        sf, sw = flat[by_node], fw[by_node]
        overwrite_sorted = np.full(n_writes_k * qa, np.inf)
        taken = np.flatnonzero(sf[1:] == sf[:-1])
        overwrite_sorted[taken] = cw_tw[sw[taken + 1]]
        overwrite = np.empty(n_writes_k * qa)
        overwrite[by_node] = overwrite_sorted
        ends = np.minimum(all_deaths[cw], overwrite.reshape(-1, qa))

        u = outcome_u[ridx]
        cum = np.zeros(len(ridx))
        rem = elig
        depth = 1
        while len(rem):
            v = s[rem] - depth
            keep = v >= 0
            rem, v = rem[keep], v[keep]
            if len(rem) == 0:
                break
            in_window = cw_tw[v] + ttl > tr[rem]
            rem, v = rem[in_window], v[in_window]
            if len(rem) == 0:
                break
            cum[rem] += (ends[v] > tr[rem][:, None]).sum(axis=1)
            hit = u[rem] >= miss[np.minimum(
                cum[rem].astype(np.int64), n)]
            if hit.any():
                rows = rem[hit]
                read_version[ridx[rows]] = v[hit]
                read_expiry[ridx[rows]] = cw_tw[v[hit]] + ttl
                rem = rem[~hit]
            depth += 1

    def max_exp(u: np.ndarray, k: int) -> np.ndarray:
        safe = np.clip(u, 1e-12, 1.0 - 1e-12)
        return -np.log1p(-np.power(safe, 1.0 / k))

    latency = config.rtt_base + config.rtt * max_exp(lat_query_u, ql)
    latency = latency + np.where(
        stored, config.rtt_base + config.rtt * max_exp(lat_store_u, qa), 0.0)

    reads_mask = ops.kinds == OP_GET
    ridx = np.flatnonzero(reads_mask)
    r_version = read_version[ridx]
    r_latest = read_latest[ridx]
    found = r_version >= 0
    eligible = r_latest >= 0
    missed = int(np.count_nonzero(~found & eligible))
    not_newest = int(np.count_nonzero(found & (r_version < r_latest)))
    predicted = predicted_stale(pred_age[ridx][eligible],
                                pred_expired[ridx][eligible],
                                qa, config.churn_rate, miss)

    report = check_kv_batch(
        ops.times[ridx], r_version, r_latest, read_expiry[ridx],
        writes=int(np.count_nonzero(ops.kinds == OP_PUT)),
        cas_attempts=cas_attempts, cas_successes=cas_successes)

    p50, p99, p999 = np.percentile(latency, (50.0, 99.0, 99.9))
    return KVRunStats(
        backend="batched", ops=len(ops), reads=int(reads_mask.sum()),
        writes=int(np.count_nonzero(ops.kinds == OP_PUT)),
        cas_attempts=cas_attempts, cas_successes=cas_successes,
        found_reads=int(np.count_nonzero(found)), missed_reads=missed,
        stale_or_missed=not_newest + missed,
        p50=float(p50), p99=float(p99), p999=float(p999),
        predicted_stale=predicted, report=report)
