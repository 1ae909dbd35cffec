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

The paper's own workload piece sits at the end of the module: the
sliding-window **tau estimator** of Section 5.4 (the lookup:advertise
ratio that drives the cost-optimal asymmetric sizing of Lemma 5.6 — a
wrong or drifting estimate never affects correctness, only the message
bill).

Both backends return :class:`KVRunStats` — tail latency (p50/p99/p999),
stale-read fraction, availability, the analytic stale prediction, and a
:class:`~repro.services.consistency.KVConsistencyReport` — so every
workload run doubles as a correctness oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional

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

#: Rows per cache-sized block of the kernel's per-read passes.
_BLOCK = 1 << 15
#: Rows per block of the write-quorum draw's ``rows x n`` held-node table.
_FLOYD_ROWS = 1 << 12


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

def run_workload_sequential(store: Any, spec: WorkloadSpec) -> KVRunStats:
    """Execute the generated stream against a live :class:`QuorumKVStore`.

    Arrivals drive the simulated clock (open loop): the network runs
    until each op's arrival time before
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
        target = start + float(ops.times[i])
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

    def __post_init__(self) -> None:
        for name in ("quorum_a", "quorum_l"):
            size = getattr(self, name)
            if not 0 <= size <= self.n:
                raise ValueError(
                    f"{name}={size} must be in [0, n={self.n}]")

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
    query at once.  The queries are put in node order first (a stable
    sort, so time order within a node is kept): sorted queries let the
    search start where the last one ended.  Nodes with no later event
    get ``+inf``.
    """
    by_node = np.argsort(nodes, kind="stable")
    nodes = nodes[by_node]
    base = nodes * span
    idx = np.searchsorted(churn_comp, base + t[by_node], side="right")
    comp = np.append(churn_comp, np.inf)[idx]   # past the end: no event
    del idx
    same_node = comp < (nodes + 1) * span
    comp -= base
    comp[~same_node] = np.inf
    out = np.empty(len(comp))
    out[by_node] = comp
    return out


def _predicted_stale(ages: np.ndarray, expired: np.ndarray, qa: int,
                     churn_rate: float, miss: np.ndarray) -> float:
    """Mean exact ``P(miss the newest version's surviving holders)``.

    Log-space binomial mixture of the hypergeometric miss table — the
    vectorized twin of
    :func:`repro.analysis.leases.stale_read_probability_exact`.  The
    mixture runs in place over cache-sized blocks of reads; each read's
    value takes the same float operations in the same order as over the
    whole array at once.
    """
    if len(ages) == 0:
        return math.nan
    p = np.where(expired, 0.0, np.exp(-churn_rate * ages))
    m = miss[:qa + 1]

    def mixture(prob: np.ndarray, mvals: np.ndarray) -> np.ndarray:
        # Binomial(qa, prob) mixture of mvals via the pmf recurrence;
        # stable because callers keep prob <= 0.5, so comp >= 0.5.
        comp = 1.0 - prob
        pmf = comp ** qa
        acc = pmf * mvals[0]
        ratio = prob / comp
        term = np.empty_like(prob)
        for k in range(1, qa + 1):
            pmf *= ratio
            pmf *= (qa - k + 1) / k
            acc += np.multiply(pmf, mvals[k], out=term)
        return acc

    total = np.empty(len(p))
    for lo in range(0, len(p), _BLOCK):
        block, out = p[lo:lo + _BLOCK], total[lo:lo + _BLOCK]
        low = block <= 0.5
        # Small p: sum over survivor counts; large p: over failure counts.
        out[low] = mixture(block[low], m)
        out[~low] = mixture(1.0 - block[~low], m[::-1])
    return float(total.mean())


def _draw_quorums(rng: np.random.Generator, count: int, n: int,
                  qa: int) -> np.ndarray:
    """``count`` uniform ``qa``-subsets of ``n`` nodes, one row each.

    Floyd's subset algorithm (Bentley & Floyd, CACM 1987), all rows at
    once: step ``i`` keeps ``t``, uniform on ``[0, n - qa + i]`` and
    pre-drawn in one call, or ``n - qa + i`` when the row already holds
    ``t``.  What each row holds is marked in a ``_FLOYD_ROWS x n``
    boolean table, reused block by block.  Every row is a uniform set;
    the order of its slots is not, and no consumer reads it.  Node ids
    are kept in the smallest dtype that fits ``n``: the slot tables stay
    small, and the stable sorts by node run as radix sorts.
    """
    quorums = rng.integers(0, np.arange(n - qa + 1, n + 1), size=(count, qa),
                           dtype=np.min_scalar_type(n))
    taken = np.zeros(min(count, _FLOYD_ROWS) * n, dtype=bool)
    for lo in range(0, count, _FLOYD_ROWS):
        rows = quorums[lo:lo + _FLOYD_ROWS]
        base = np.arange(len(rows)) * n
        for i in range(qa):
            slot = rows[:, i]
            slot[taken[base + slot]] = n - qa + i
            taken[base + slot] = True
        taken[:] = False
    return quorums


def _commit_cas(committed: np.ndarray, first: np.ndarray, rows: np.ndarray,
                times: np.ndarray, u: np.ndarray, deaths: np.ndarray,
                miss: np.ndarray) -> int:
    """Decide every cas of a key-major write list, in place.

    ``committed`` is true at the puts on entry; ``first[i]`` is the list
    position of the first write of ``i``'s key, ``rows`` maps positions
    to rows of ``deaths``.  A cas commits when its key has no commit
    yet, or when its uniform clears ``miss[c]``, ``c`` the latest
    commit's slots still alive at the cas's time: the depth-0 first hit
    of the read rule, so the cas's view is the latest version.  Only the
    walk to each cas's latest commit is sequential, because a cas
    commit can be the next cas's latest.  Returns the cas commits.
    """
    last_put = np.maximum.accumulate(
        np.where(committed, np.arange(len(committed)), -1))
    cas = np.flatnonzero(~committed)
    last_ok, successes = -1, 0
    for i, put, start, t, draw in zip(
            cas.tolist(), last_put[cas].tolist(), first[cas].tolist(),
            times[cas].tolist(), u[cas].tolist()):
        latest = max(put, last_ok)
        if latest >= start and draw < miss[
                np.count_nonzero(deaths[rows[latest]] > t)]:
            continue  # the view missed the latest version: the cas fails
        committed[i] = True
        last_ok = i
        successes += 1
    return successes


def _slot_ends(slots: np.ndarray, deaths: np.ndarray, keys: np.ndarray,
               times: np.ndarray) -> np.ndarray:
    """End time of every slot of a key-major ledger of committed writes.

    A slot ends at its death (``deaths``, updated in place and returned),
    or earlier at the time of the next commit of the same key that
    re-stores the node (newest wins per replica).  One stable sort of
    the slots by node keeps each node's slots in ledger order, so a
    slot's successor in that order is its overwrite whenever both rows
    belong to one key.
    """
    qa = slots.shape[1]
    flat = slots.reshape(-1)
    by_node = np.argsort(flat, kind="stable")
    sorted_nodes = flat[by_node]
    taken = np.flatnonzero(sorted_nodes[1:] == sorted_nodes[:-1])
    del sorted_nodes
    slot, later = by_node[taken], by_node[1:][taken]
    del by_node, taken
    later //= qa
    keep = keys[slot // qa] == keys[later]
    slot, later = slot[keep], later[keep]
    ends = deaths.reshape(-1)
    ends[slot] = np.minimum(ends[slot], times[later])
    return deaths


def _depth_walk(newest: np.ndarray, first: np.ndarray, t: np.ndarray,
                u: np.ndarray, times: np.ndarray, ends: np.ndarray,
                ttl: float, miss: np.ndarray) -> np.ndarray:
    """Ledger position of the version each read returns (``-1``: none).

    Reads advance newest-to-oldest through their key's ledger rows,
    each accumulating surviving slot counts until its uniform decides
    the hypergeometric first hit, it runs out of versions, or everything
    deeper is past its TTL.  The counted slots sit on distinct nodes (an
    overwritten slot ends at its overwrite), so a count never passes
    ``n`` and always indexes ``miss``.  Reads are independent, so they
    walk in blocks of ``_BLOCK`` whose ``_BLOCK x qa`` survival table
    bounds the pass's memory.
    """
    got = np.full(len(newest), -1, dtype=np.int64)
    for lo in range(0, len(newest), _BLOCK):
        rem = np.arange(lo, min(lo + _BLOCK, len(newest)))
        cum = np.zeros(len(rem), dtype=np.int64)
        depth = 0
        while len(rem):
            v = newest[rem] - depth
            keep = v >= first[rem]
            rem, v = rem[keep], v[keep]
            tr = t[rem]
            in_window = times[v] + ttl > tr
            rem, v, tr = rem[in_window], v[in_window], tr[in_window]
            c = cum[rem - lo] + np.count_nonzero(ends[v] > tr[:, None],
                                                 axis=1)
            cum[rem - lo] = c
            hit = u[rem] >= miss[c]
            got[rem[hit]] = v[hit]
            rem = rem[~hit]
            depth += 1
    return got


def run_workload_batched(spec: WorkloadSpec,
                         config: Optional[KVPointConfig] = None) -> KVRunStats:
    """The million-op kernel: exact-marginal quorum kv simulation.

    Node churn is a per-node Poisson process (rate ``churn_rate``); every
    write stores a fresh lease at a uniform ``|Qa|``-subset; every read's
    returned version is decided by the first-hit decomposition over the
    key's surviving version compartments (see the module docstring).
    All randomness is pre-drawn from one Philox stream keyed off the
    spec seed, so the run is bit-reproducible.

    The passes run over the whole op stream at once: the writes, sorted
    key-major, are committed by one cas rule (:func:`_commit_cas`); the
    committed writes form one key-major ledger, which every read finds
    its newest version in with one ``searchsorted`` on the exact integer
    key ``key * (ops + 1) + op``; the slots' overwrite times come from
    one sort by node (:func:`_slot_ends`); and all keys' reads walk the
    ledger together, in bounded blocks (:func:`_depth_walk`).
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

    # Pre-drawn randomness (op-indexed, so no pass order can perturb
    # the stream): write quorums, read outcomes, latency.
    is_write = ops.kinds != OP_GET
    write_ops = np.flatnonzero(is_write)
    n_write_ops = len(write_ops)
    write_quorums = _draw_quorums(rng, n_write_ops, n, qa)
    outcome_u = rng.random(len(ops))
    lat_query_u = rng.random(len(ops))
    lat_store_u = rng.random(len(ops))

    miss = _miss_table(n, ql)

    # Death time of every potential slot — min(first churn after the
    # store, store + TTL) — for all write/cas ops at once.
    w_times = np.repeat(ops.times[write_ops], qa)
    all_deaths = np.minimum(
        _first_churn_after(write_quorums.reshape(-1), w_times, churn_comp,
                           span),
        w_times + ttl).reshape(n_write_ops, qa)
    del w_times

    # Writes key-major (time order within a key); puts always commit.
    w_keys = ops.keys[write_ops]
    by_key = np.argsort(w_keys, kind="stable")
    w_keys = w_keys[by_key]
    w_ops = write_ops[by_key]
    committed = ops.kinds[w_ops] == OP_PUT
    writes = int(np.count_nonzero(committed))
    cas_attempts = n_write_ops - writes
    cas_successes = _commit_cas(
        committed, np.searchsorted(w_keys, w_keys), by_key,
        ops.times[w_ops], outcome_u[w_ops], all_deaths, miss)
    stored = np.zeros(len(ops), dtype=bool)   # write/cas committed a version
    stored[w_ops[committed]] = True

    # The ledger: committed writes, key-major; a key's versions are its
    # rows counted from the key's first row.
    ledger = by_key[committed]
    l_keys, l_ops = w_keys[committed], w_ops[committed]
    l_times = ops.times[l_ops]
    # Only the ledger's rows go on: the per-write arrays are freed before
    # the overwrite pass, which sets the pass's peak after the draws.
    slots, deaths = write_quorums[ledger], all_deaths[ledger]
    del by_key, w_keys, w_ops, committed, ledger, write_quorums, all_deaths
    ends = _slot_ends(slots, deaths, l_keys, l_times)
    del slots, deaths
    key_first = np.searchsorted(l_keys, np.arange(spec.n_keys))

    reads = np.flatnonzero(~is_write)
    r_keys = ops.keys[reads]
    stride = len(ops) + 1
    # Queries in key order (a stable sort keeps op order within a key),
    # so the search sweeps the ledger once; scattered back after.
    read_order = np.argsort(r_keys, kind="stable")
    pos = np.empty(len(reads), dtype=np.int64)
    pos[read_order] = np.searchsorted(
        l_keys * stride + l_ops, (r_keys * stride + reads)[read_order])
    del read_order
    first = key_first[r_keys]
    eligible = pos > first
    elig = np.flatnonzero(eligible)
    newest, first = pos[elig] - 1, first[elig]
    tr = ops.times[reads[elig]]
    read_latest = np.full(len(reads), -1, dtype=np.int64)
    read_latest[elig] = newest - first
    pred_age = tr - l_times[newest]
    pred_expired = tr >= l_times[newest] + ttl

    got = _depth_walk(newest, first, tr, outcome_u[reads[elig]], l_times,
                      ends, ttl, miss)
    hit = got >= 0
    read_version = np.full(len(reads), -1, dtype=np.int64)
    read_version[elig[hit]] = got[hit] - first[hit]
    read_expiry = np.full(len(reads), np.inf)
    read_expiry[elig[hit]] = l_times[got[hit]] + ttl

    # Latency: query phase = max of ql per-contact RTTs, store phase
    # (writes and successful cas) adds a max of qa; inverse-CDF of the
    # max of k exponentials keeps it one pre-drawn uniform per phase.
    def max_exp(u: np.ndarray, k: int) -> np.ndarray:
        safe = np.clip(u, 1e-12, 1.0 - 1e-12)
        return -np.log1p(-np.power(safe, 1.0 / k))

    latency = config.rtt_base + config.rtt * max_exp(lat_query_u, ql)
    latency = latency + np.where(
        stored, config.rtt_base + config.rtt * max_exp(lat_store_u, qa), 0.0)

    found = read_version >= 0
    missed = int(np.count_nonzero(~found & eligible))
    not_newest = int(np.count_nonzero(found & (read_version < read_latest)))
    predicted = _predicted_stale(pred_age, pred_expired, qa,
                                 config.churn_rate, miss)

    report = check_kv_batch(
        ops.times[reads], read_version, read_latest, read_expiry,
        writes=writes, cas_attempts=cas_attempts,
        cas_successes=cas_successes)

    p50, p99, p999 = np.percentile(latency, (50.0, 99.0, 99.9))
    return KVRunStats(
        backend="batched", ops=len(ops), reads=len(reads), writes=writes,
        cas_attempts=cas_attempts, cas_successes=cas_successes,
        found_reads=int(np.count_nonzero(found)), missed_reads=missed,
        stale_or_missed=not_newest + missed,
        p50=float(p50), p99=float(p99), p999=float(p999),
        predicted_stale=predicted, report=report)


# -- usage-pattern estimation and P2P-style schedules (Section 5.4) ----------


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
