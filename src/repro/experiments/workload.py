"""Open-loop kv workload engine (the serving-benchmark driver).

Generates a deterministic operation stream on its own Philox stream —
Poisson (open-loop) arrivals, Zipf key popularity, a configurable
read/write/cas mix — and drives :class:`~repro.services.kvstore.QuorumKVStore`
through it.  Two execution backends share one generator, so the op
sequence is bit-identical across ``--jobs`` settings and backends:

* **sequential** — every op runs through the real biquorum access stack
  on a live :class:`~repro.simnet.network.SimNetwork` (auditor, trace,
  watchers, masking all active).  Ground truth; thousands of ops.
* **batched** — a pure-numpy kernel in the spirit of the batched access
  engine (PR 6): uniform quorum membership is sampled analytically, node
  churn is a per-node Poisson process, and each read's outcome is
  decided by the exact hypergeometric first-hit decomposition over the
  key's surviving version compartments.  Because a read's quorum is a
  uniform ``|Ql|``-subset, the version it returns depends on the holder
  *counts* only, so a single uniform draw per read replaces the
  ``|Ql| x n`` sampling matrix — one point with ~1M simulated ops
  completes in seconds, with per-read marginals exactly matching
  :func:`repro.analysis.leases.stale_read_probability_exact`.

The paper's own workload pieces sit at the end of the module: the
sliding-window **tau estimator** of Section 5.4 (the lookup:advertise
ratio that drives the cost-optimal asymmetric sizing of Lemma 5.6 — a
wrong or drifting estimate never affects correctness, only the message
bill) and a P2P-style advertise/lookup schedule over **Zipf-popular
keys** (Sections 5.4, 7.1: the regime in which bystander caching makes
"lookup requests for popular data items terminate much faster").  They
share :func:`zipf_pmf` with the kv generator.

Both backends return :class:`KVRunStats` — tail latency (p50/p99/p999),
stale-read fraction, availability, the analytic stale prediction, and a
:class:`~repro.services.consistency.KVConsistencyReport` — so every
workload run doubles as a correctness oracle.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Hashable, List, Optional, Sequence

import numpy as np

from repro.analysis.costs import optimal_size_ratio
from repro.analysis.intersection import asymmetric_quorum_sizes
from repro.services.consistency import (
    KVConsistencyReport,
    KVHistoryChecker,
    check_kv_batch,
)
from repro.sim.rng import derive_stream_seed

#: Operation codes in the generated stream.
OP_GET, OP_PUT, OP_CAS = 0, 1, 2

#: Philox stream names (master-seed keyed, like WORKLOAD_STREAMS).
GENERATOR_STREAM = "kv-workload-ops"
KERNEL_STREAM = "kv-workload-kernel"


@dataclass(frozen=True)
class WorkloadSpec:
    """One open-loop workload point (backend-independent)."""

    ops: int = 10_000
    n_keys: int = 64
    read_fraction: float = 0.9
    cas_fraction: float = 0.0      # fraction of the write share that is cas
    zipf_s: float = 0.99           # Zipf popularity exponent
    arrival_rate: float = 200.0    # ops per simulated second (open loop)
    seed: int = 7

    def validate(self) -> None:
        if self.ops < 1:
            raise ValueError("ops must be positive")
        if self.n_keys < 1:
            raise ValueError("n_keys must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.cas_fraction <= 1.0:
            raise ValueError("cas_fraction must be in [0, 1]")
        if self.zipf_s < 0.0:
            raise ValueError("zipf_s must be non-negative")
        if self.arrival_rate <= 0.0:
            raise ValueError("arrival_rate must be positive")


def zipf_pmf(n_keys: int, s: float) -> np.ndarray:
    """Analytic Zipf(s) pmf over ``n_keys`` ranks (rank 1 most popular)."""
    if n_keys < 1:
        raise ValueError("n_keys must be positive")
    weights = np.arange(1, n_keys + 1, dtype=np.float64) ** -float(s)
    return weights / weights.sum()


@dataclass
class Operations:
    """A generated op stream: parallel arrays, time-ordered."""

    times: np.ndarray     # float64 arrival times (strictly increasing)
    keys: np.ndarray      # int64 key ranks in [0, n_keys)
    kinds: np.ndarray     # int8 OP_GET / OP_PUT / OP_CAS
    origins: np.ndarray   # uint32 client draws (mapped to nodes later)

    def __len__(self) -> int:
        return len(self.times)


def generate_operations(spec: WorkloadSpec) -> Operations:
    """The open-loop generator: a pure function of the spec.

    Runs on its own Philox stream keyed off the master seed, so the
    sequence is independent of the network, the backend, and the job
    count — the determinism the workload tests pin down.
    """
    spec.validate()
    rng = np.random.Generator(np.random.Philox(
        key=derive_stream_seed(spec.seed, GENERATOR_STREAM)))
    gaps = rng.exponential(1.0 / spec.arrival_rate, size=spec.ops)
    times = np.cumsum(gaps)
    cum = np.cumsum(zipf_pmf(spec.n_keys, spec.zipf_s))
    keys = np.searchsorted(cum, rng.random(spec.ops),
                           side="right").astype(np.int64)
    np.clip(keys, 0, spec.n_keys - 1, out=keys)
    mix = rng.random(spec.ops)
    kinds = np.full(spec.ops, OP_PUT, dtype=np.int8)
    kinds[mix < spec.read_fraction] = OP_GET
    write_share = 1.0 - spec.read_fraction
    cas_cut = spec.read_fraction + write_share * spec.cas_fraction
    kinds[(mix >= spec.read_fraction) & (mix < cas_cut)] = OP_CAS
    origins = rng.integers(0, 2 ** 32, size=spec.ops, dtype=np.uint32)
    return Operations(times=times, keys=keys, kinds=kinds, origins=origins)


@dataclass
class KVRunStats:
    """Aggregate outcome of one workload run (either backend)."""

    backend: str
    ops: int
    reads: int
    writes: int
    cas_attempts: int
    cas_successes: int
    found_reads: int
    missed_reads: int
    stale_or_missed: int           # reads that failed to see the newest commit
    p50: float
    p99: float
    p999: float
    predicted_stale: float         # analytic E[P(miss newest)]; NaN if n/a
    report: KVConsistencyReport = field(default_factory=KVConsistencyReport)

    @property
    def eligible_reads(self) -> int:
        """Reads of keys that had committed data."""
        return self.found_reads + self.missed_reads

    @property
    def stale_fraction(self) -> float:
        """Fraction of eligible reads not returning the newest committed
        version (stale hit or miss) — the quantity the lease analysis
        predicts.  NaN with no eligible reads."""
        if self.eligible_reads == 0:
            return math.nan
        return self.stale_or_missed / self.eligible_reads

    @property
    def availability(self) -> float:
        """Fraction of eligible reads that returned *some* value."""
        if self.eligible_reads == 0:
            return math.nan
        return self.found_reads / self.eligible_reads


# ---------------------------------------------------------------------------
# Sequential backend: the real service on a live network
# ---------------------------------------------------------------------------

def run_workload_sequential(store: Any, spec: WorkloadSpec,
                            time_scale: float = 1.0) -> KVRunStats:
    """Execute the generated stream against a live :class:`QuorumKVStore`.

    Arrivals drive the simulated clock (open loop): the network runs
    until each op's arrival time (times scaled by ``time_scale``) before
    the op is issued.  The store's checker (when present) records every
    op; cas ops target the latest committed value (the client read its
    own oracle), so honest runs keep cas mostly succeeding.
    """
    ops = generate_operations(spec)
    net = store.net
    start = net.now
    latencies: List[float] = []
    reads = writes = cas_attempts = cas_successes = 0
    found = missed = not_newest = 0
    for i in range(len(ops)):
        target = start + float(ops.times[i]) * time_scale
        if target > net.now:
            net.run_until(target)
        alive = net.alive_nodes()
        origin = alive[int(ops.origins[i]) % len(alive)]
        key = f"k{int(ops.keys[i])}"
        kind = int(ops.kinds[i])
        if kind == OP_GET:
            result = store.get(origin, key)
            reads += 1
            latest = store.latest_committed(key)
            if result.ok:
                found += 1
                if latest is not None and result.version < latest[0]:
                    not_newest += 1
            elif latest is not None:
                missed += 1
                not_newest += 1
        elif kind == OP_PUT:
            result = store.put(origin, key, f"v{i}")
            writes += 1
        else:
            latest = store.latest_committed(key)
            expected = latest[1] if latest is not None else None
            result = store.cas(origin, key, expected, f"v{i}")
            cas_attempts += 1
            if result.ok:
                cas_successes += 1
        latencies.append(result.latency)
    lat = np.asarray(latencies, dtype=np.float64)
    p50, p99, p999 = (np.percentile(lat, (50.0, 99.0, 99.9))
                      if len(lat) else (math.nan,) * 3)
    report = (store.checker.report() if store.checker is not None
              else KVConsistencyReport())
    return KVRunStats(
        backend="sequential", ops=len(ops), reads=reads, writes=writes,
        cas_attempts=cas_attempts, cas_successes=cas_successes,
        found_reads=found, missed_reads=missed, stale_or_missed=not_newest,
        p50=float(p50), p99=float(p99), p999=float(p999),
        predicted_stale=math.nan, report=report)


# ---------------------------------------------------------------------------
# Batched backend: the million-op kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KVPointConfig:
    """Deployment knobs of one batched kv point."""

    n: int = 400                  # replica population
    quorum_a: int = 0             # 0 = ceil(sqrt(n ln 1/eps)) symmetric
    quorum_l: int = 0
    epsilon: float = 0.05
    lease_ttl: float = 30.0
    churn_rate: float = 0.0       # node churn events per node-second
    rtt: float = 0.02             # per-contact latency scale (max-of-k model)
    rtt_base: float = 0.005

    def sizes(self) -> tuple:
        if self.quorum_a > 0 and self.quorum_l > 0:
            return self.quorum_a, self.quorum_l
        size = max(1, int(math.ceil(
            math.sqrt(self.n * math.log(1.0 / self.epsilon)))))
        size = min(size, self.n)
        return (self.quorum_a or size), (self.quorum_l or size)


def _log_factorials(n: int) -> np.ndarray:
    table = np.zeros(n + 1, dtype=np.float64)
    table[1:] = np.cumsum(np.log(np.arange(1, n + 1, dtype=np.float64)))
    return table


def _miss_table(n: int, ql: int) -> np.ndarray:
    """``M[s] = Pr(uniform ql-subset of n avoids a fixed s-set)``."""
    lf = _log_factorials(n)
    s = np.arange(n + 1)
    table = np.zeros(n + 1, dtype=np.float64)
    ok = s <= n - ql
    sv = s[ok]
    table[ok] = np.exp(lf[n - sv] - lf[n - sv - ql] - (lf[n] - lf[n - ql]))
    return table


def _first_churn_after(nodes: np.ndarray, t: np.ndarray, churn_comp: np.ndarray,
                       span: float) -> np.ndarray:
    """Per-node time of the first churn event strictly after ``t[i]``.

    ``churn_comp`` is the composite-key array ``node * span + time``
    sorted ascending, so one global searchsorted answers every node's
    query at once.  Nodes with no later event get ``+inf``.
    """
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


def _predicted_stale(ages: np.ndarray, expired: np.ndarray, qa: int,
                     churn_rate: float, miss: np.ndarray) -> float:
    """Mean exact ``P(miss the newest version's surviving holders)``.

    Log-space binomial mixture of the hypergeometric miss table — the
    vectorized twin of
    :func:`repro.analysis.leases.stale_read_probability_exact`.
    """
    if len(ages) == 0:
        return math.nan
    p = np.where(expired, 0.0, np.exp(-churn_rate * ages))
    m = miss[:qa + 1].copy()

    def mixture(prob: np.ndarray, mvals: np.ndarray) -> np.ndarray:
        # Binomial(qa, prob) mixture of mvals via the pmf recurrence;
        # stable because callers keep prob <= 0.5.
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
    # Small p: sum over survivor counts; large p: over failure counts.
    total[lo] = mixture(p[lo], m)
    total[~lo] = mixture(1.0 - p[~lo], m[::-1])
    return float(total.mean())


def run_workload_batched(spec: WorkloadSpec,
                         config: Optional[KVPointConfig] = None) -> KVRunStats:
    """The million-op kernel: exact-marginal quorum kv simulation.

    Node churn is a per-node Poisson process (rate ``churn_rate``); every
    write stores a fresh lease at a uniform ``|Qa|``-subset; every read's
    returned version is decided by the first-hit decomposition over the
    key's surviving version compartments (see the module docstring).
    All randomness is pre-drawn from one Philox stream keyed off the
    spec seed, so the run is bit-reproducible.
    """
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

    # Churn: per-node Poisson event times, packed as one sorted
    # composite-key array (node * span + t) for vectorized queries.
    span = horizon * 1.000001 + 1.0
    counts = rng.poisson(config.churn_rate * horizon, size=n)
    total_events = int(counts.sum())
    event_nodes = np.repeat(np.arange(n), counts)
    event_times = rng.random(total_events) * horizon
    churn_comp = np.sort(event_nodes * span + event_times)

    # Pre-drawn randomness (op-indexed, so the per-key sweep order
    # cannot perturb the stream): write quorums, read outcomes, latency.
    is_write = ops.kinds != OP_GET
    write_ordinal = np.cumsum(is_write) - 1
    n_write_ops = int(is_write.sum())
    write_quorums = np.empty((n_write_ops, qa), dtype=np.int64)
    chunk = max(1, min(n_write_ops, 4_000_000 // max(n, 1)))
    for lo in range(0, n_write_ops, chunk):
        hi = min(lo + chunk, n_write_ops)
        scores = rng.random((hi - lo, n))
        write_quorums[lo:hi] = np.argpartition(scores, qa - 1,
                                               axis=1)[:, :qa]
    outcome_u = rng.random(len(ops))
    lat_query_u = rng.random(len(ops))
    lat_store_u = rng.random(len(ops))

    miss = _miss_table(n, ql)

    # Global per-read outputs (indexed by op id).
    read_version = np.full(len(ops), -1, dtype=np.int64)
    read_latest = np.full(len(ops), -1, dtype=np.int64)
    read_expiry = np.full(len(ops), np.inf)
    pred_age = np.full(len(ops), np.nan)
    pred_expired = np.zeros(len(ops), dtype=bool)
    stored = np.zeros(len(ops), dtype=bool)   # write/cas committed a version

    cas_attempts = cas_successes = 0

    # Death time of every potential slot — min(first churn after the
    # store, store + TTL) — precomputed for all write/cas ops at once.
    write_ops = np.flatnonzero(is_write)
    w_times = np.repeat(ops.times[write_ops], qa)
    flat_nodes = write_quorums.reshape(-1)
    all_deaths = np.minimum(
        _first_churn_after(flat_nodes, w_times, churn_comp, span),
        w_times + ttl).reshape(n_write_ops, qa)

    def decide_single(op: int, latest_counter: int,
                      node_version: np.ndarray,
                      node_death: np.ndarray) -> int:
        """Pass-1 single-read decision (a cas's view) on slot state."""
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

    order = np.argsort(ops.keys, kind="stable")  # per-key, time-ordered
    sorted_keys = ops.keys[order]
    group_bounds = np.flatnonzero(np.diff(sorted_keys)) + 1

    for group in np.split(order, group_bounds):
        group_kinds = ops.kinds[group]
        wpos = np.flatnonzero(group_kinds != OP_GET)
        wops = group[wpos]

        # Pass 1 — commit writes.  A cas needs its own read decision
        # against the live slot state, so keys with cas ops walk their
        # write events sequentially; put-only keys commit in bulk.
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
                        continue  # stale or empty view: cas fails
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

        # Slot end times: death curtailed by the next committed write
        # that re-stores the same node (newest-wins per replica).
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

        # Pass 2 — the depth walk: all of the key's reads advance
        # newest-to-oldest together, each accumulating surviving vote
        # counts until its pre-drawn uniform decides the hypergeometric
        # first-hit, it runs out of versions, or everything deeper is
        # past its TTL.
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

    # Latency: query phase = max of ql per-contact RTTs, store phase
    # (writes and successful cas) adds a max of qa; inverse-CDF of the
    # max of k exponentials keeps it one pre-drawn uniform per phase.
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
    predicted = _predicted_stale(pred_age[ridx][eligible],
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


# -- usage-pattern estimation and P2P-style schedules (Section 5.4) ----------


class ZipfKeySampler:
    """Keys with Zipf(s) popularity (rank-r probability ∝ 1/r^s)."""

    def __init__(self, keys: Sequence[Hashable], exponent: float = 1.0,
                 *, rng: random.Random) -> None:
        if not keys:
            raise ValueError("need at least one key")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self.keys = list(keys)
        self.exponent = exponent
        self.rng = rng
        self._pmf = zipf_pmf(len(self.keys), exponent)
        self._cumulative: List[float] = np.cumsum(self._pmf).tolist()

    def sample(self) -> Hashable:
        """Draw one key by popularity."""
        rank = bisect.bisect_left(self._cumulative, self.rng.random())
        return self.keys[min(rank, len(self.keys) - 1)]

    def probability_of(self, key: Hashable) -> float:
        return float(self._pmf[self.keys.index(key)])


@dataclass
class SizingRecommendation:
    """Output of the tau-driven sizing."""

    tau: float
    advertise_size: int
    lookup_size: int


class TauEstimator:
    """Sliding-window estimator of the lookup:advertise ratio.

    Record each operation with :meth:`record_lookup` /
    :meth:`record_advertise`; :meth:`tau` returns the windowed ratio and
    :meth:`recommend_sizes` turns it into Lemma 5.6 quorum sizes for
    given per-node costs.  A wrong tau only costs messages, never the
    intersection guarantee (the recommendation always satisfies
    Corollary 5.3).
    """

    def __init__(self, window: int = 256, prior_tau: float = 1.0) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        if prior_tau <= 0:
            raise ValueError("prior_tau must be positive")
        self.window = window
        self.prior_tau = prior_tau
        self._events: Deque[str] = deque(maxlen=window)

    def record_lookup(self) -> None:
        self._events.append("l")

    def record_advertise(self) -> None:
        self._events.append("a")

    @property
    def observed_lookups(self) -> int:
        return sum(1 for e in self._events if e == "l")

    @property
    def observed_advertises(self) -> int:
        return sum(1 for e in self._events if e == "a")

    def tau(self) -> float:
        """Windowed lookup:advertise ratio, smoothed by a one-event prior."""
        lookups = self.observed_lookups
        advertises = self.observed_advertises
        return (lookups + self.prior_tau) / (advertises + 1.0)

    def recommend_sizes(self, n: int, epsilon: float,
                        cost_a: float, cost_l: float) -> SizingRecommendation:
        """Lemma 5.6 sizes for the current tau estimate."""
        tau = self.tau()
        ratio = optimal_size_ratio(tau, cost_a, cost_l)
        qa, ql = asymmetric_quorum_sizes(n, epsilon, ratio)
        return SizingRecommendation(tau=tau,
                                    advertise_size=min(qa, n),
                                    lookup_size=min(ql, n))
