"""Load/cost-optimized quorum-selection strategies.

A *strategy* for a :class:`~repro.quorum.algebra.QuorumSystem` is a pair
of probability distributions — one over the read quorums, one over the
write quorums.  Under a read/write mix ``read_fraction`` the induced
**load** of a node is the probability an access touches it (normalised
by capacity 1 access per node per unit time, the Naor–Wool definition);
the **system load** is the maximum over nodes, and the optimizer picks
the distributions minimizing it:

    minimize  L
    s.t.      fr * Ar @ pr + (1 - fr) * Aw @ pw <= L  (per node)
              sum(pr) = 1, sum(pw) = 1, pr >= 0, pw >= 0

where ``Ar[x, q] = 1`` iff read quorum ``q`` contains node ``x``.  Two
solvers are built in: :mod:`scipy.optimize.linprog` when scipy is
importable (exact), and a pure-numpy multiplicative-weights solver for
the same minimax program (no dependencies beyond numpy).
``optimize="network"`` / ``"latency"`` minimize expected
quorum size / expected quorum latency instead — both linear, so the
optimum concentrates on the cheapest quorums.

Degenerate inputs follow the PR 5 ``reps=0`` convention: a system whose
read or write side has no live quorum (e.g. every quorum contains a
faulted node) yields a :class:`Strategy` whose metrics are all ``nan``
rather than raising, so figure sweeps render NaN rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.quorum.algebra import Element, QuorumSystem

_NAN = float("nan")

#: Objectives understood by :func:`solve_strategy`.
OBJECTIVES = ("load", "network", "latency")

#: Iterations for the pure-numpy multiplicative-weights LP fallback.
MW_ITERATIONS = 4000


@dataclass(frozen=True)
class Strategy:
    """Quorum-selection probabilities plus the metrics they induce.

    ``read_quorums[i]`` is selected with probability ``read_probs[i]``
    (same for writes).  An *empty* side (no live quorums — the
    all-faulted degenerate case) is represented by empty lists; every
    metric then reports ``nan`` and :meth:`sample_read` returns None.
    """

    system: QuorumSystem
    read_fraction: float
    read_quorums: List[FrozenSet[Element]]
    read_probs: List[float]
    write_quorums: List[FrozenSet[Element]]
    write_probs: List[float]
    objective: str = "load"
    solver: str = "?"
    faulty: FrozenSet[Element] = field(default_factory=frozenset)

    @property
    def feasible(self) -> bool:
        """Both sides have at least one live quorum."""
        return bool(self.read_quorums) and bool(self.write_quorums)

    # -- metrics ----------------------------------------------------------

    def node_loads(self, read_fraction: Optional[float] = None
                   ) -> Dict[Element, float]:
        """Per-node access probability under the read/write mix."""
        if not self.feasible:
            return {x: _NAN for x in self.system.elements()}
        fr = self.read_fraction if read_fraction is None else read_fraction
        _check_fraction(fr)
        loads: Dict[Element, float] = {
            x: 0.0 for x in self.system.elements()}
        for q, p in zip(self.read_quorums, self.read_probs):
            for x in q:
                loads[x] += fr * p
        for q, p in zip(self.write_quorums, self.write_probs):
            for x in q:
                loads[x] += (1.0 - fr) * p
        return loads

    def load(self, read_fraction: Optional[float] = None) -> float:
        """System load: max per-node access probability (lower = better)."""
        loads = self.node_loads(read_fraction)
        return max(loads.values()) if loads else _NAN

    def network_load(self) -> float:
        """Expected accessed-quorum size (≈ messages per access)."""
        if not self.feasible:
            return _NAN
        fr = self.read_fraction
        exp_r = sum(len(q) * p
                    for q, p in zip(self.read_quorums, self.read_probs))
        exp_w = sum(len(q) * p
                    for q, p in zip(self.write_quorums, self.write_probs))
        return fr * exp_r + (1.0 - fr) * exp_w

    def expected_read_size(self) -> float:
        if not self.read_quorums:
            return _NAN
        return sum(len(q) * p
                   for q, p in zip(self.read_quorums, self.read_probs))

    def expected_write_size(self) -> float:
        if not self.write_quorums:
            return _NAN
        return sum(len(q) * p
                   for q, p in zip(self.write_quorums, self.write_probs))

    def load_lower_bound(self) -> float:
        """Analytic floor: ``E[|Q|] / n`` — the sum of node loads equals
        the expected quorum size, so the max is at least the average."""
        n = len(self.system.elements())
        network = self.network_load()
        return network / n if n else _NAN

    # -- sampling ---------------------------------------------------------

    def sample_read(self, rng) -> Optional[List[Element]]:
        """Draw a read quorum (sorted by repr); None when infeasible."""
        return _sample(self.read_quorums, self.read_probs, rng)

    def sample_write(self, rng) -> Optional[List[Element]]:
        """Draw a write quorum (sorted by repr); None when infeasible."""
        return _sample(self.write_quorums, self.write_probs, rng)

    def __str__(self) -> str:
        def side(quorums, probs):
            return ", ".join(
                f"{sorted(map(repr, q))}: {p:.3f}"
                for q, p in zip(quorums, probs) if p > 1e-9)
        return (f"Strategy(fr={self.read_fraction}, "
                f"reads={{{side(self.read_quorums, self.read_probs)}}}, "
                f"writes={{{side(self.write_quorums, self.write_probs)}}})")


def _quorum_latency(q: FrozenSet[Element],
                    latencies: Optional[Dict[Element, float]]) -> float:
    if not latencies:
        return 1.0
    return max(latencies.get(x, 1.0) for x in q)


def _sample(quorums: List[FrozenSet[Element]], probs: List[float],
            rng) -> Optional[List[Element]]:
    if not quorums:
        return None
    r = rng.random()
    acc = 0.0
    for q, p in zip(quorums, probs):
        acc += p
        if r <= acc:
            return sorted(q, key=repr)
    return sorted(quorums[-1], key=repr)


def _check_fraction(fr: float) -> None:
    if not 0.0 <= fr <= 1.0:
        raise ValueError(f"read_fraction must be in [0, 1], got {fr}")


# -- the optimizer -----------------------------------------------------------


def solve_strategy(
    system: QuorumSystem,
    read_fraction: float = 0.5,
    optimize: str = "load",
    faulty: Optional[Set[Element]] = None,
    latencies: Optional[Dict[Element, float]] = None,
) -> Strategy:
    """Quorum-selection probabilities optimizing one objective.

    ``faulty`` removes every quorum containing a faulted element before
    solving; a side left without quorums yields an all-NaN strategy
    (never raises — the degenerate-input convention).  The load LP runs
    on scipy when it imports, else on the pure-numpy solver;
    ``Strategy.solver`` records which one ran.
    """
    _check_fraction(read_fraction)
    if optimize not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {optimize!r}; pick one of {OBJECTIVES}")
    dead = frozenset(faulty or ())
    read_quorums = [q for q in system.read_quorums() if not (q & dead)]
    write_quorums = [q for q in system.write_quorums() if not (q & dead)]
    if not read_quorums or not write_quorums:
        return Strategy(
            system=system, read_fraction=read_fraction,
            read_quorums=[], read_probs=[],
            write_quorums=[], write_probs=[],
            objective=optimize, solver="degenerate", faulty=dead)

    if optimize == "load":
        pr, pw, used = _solve_load(system, read_quorums, write_quorums,
                                   read_fraction)
    elif optimize == "network":
        pr = _cheapest(read_quorums, [len(q) for q in read_quorums])
        pw = _cheapest(write_quorums, [len(q) for q in write_quorums])
        used = "argmin"
    else:  # latency
        pr = _cheapest(read_quorums,
                       [_quorum_latency(q, latencies) for q in read_quorums])
        pw = _cheapest(write_quorums,
                       [_quorum_latency(q, latencies) for q in write_quorums])
        used = "argmin"
    return Strategy(
        system=system, read_fraction=read_fraction,
        read_quorums=read_quorums, read_probs=list(map(float, pr)),
        write_quorums=write_quorums, write_probs=list(map(float, pw)),
        objective=optimize, solver=used, faulty=dead)


def _cheapest(quorums: Sequence[FrozenSet[Element]],
              costs: Sequence[float]) -> List[float]:
    """Uniform mass over the minimum-cost quorums (linear objective)."""
    best = min(costs)
    winners = [i for i, c in enumerate(costs) if c <= best + 1e-12]
    probs = [0.0] * len(quorums)
    for i in winners:
        probs[i] = 1.0 / len(winners)
    return probs


def _membership_matrix(elements: Sequence[Element],
                       quorums: Sequence[FrozenSet[Element]]) -> np.ndarray:
    mat = np.zeros((len(elements), len(quorums)))
    index = {x: i for i, x in enumerate(elements)}
    for j, q in enumerate(quorums):
        for x in q:
            mat[index[x], j] = 1.0
    return mat


def _solve_load(system: QuorumSystem,
                read_quorums: List[FrozenSet[Element]],
                write_quorums: List[FrozenSet[Element]],
                read_fraction: float) -> Tuple[np.ndarray, np.ndarray, str]:
    """Minimize the max per-node load over both probability simplices."""
    elements = sorted(system.elements(), key=repr)
    ar = read_fraction * _membership_matrix(elements, read_quorums)
    aw = (1.0 - read_fraction) * _membership_matrix(elements, write_quorums)
    try:
        return (*_linprog_scipy(ar, aw), "scipy")
    except ImportError:
        return (*_minimax_mw(ar, aw), "numpy-mw")


def _linprog_scipy(ar: np.ndarray, aw: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact LP: variables [pr, pw, L], minimize L."""
    from scipy.optimize import linprog

    n_nodes = ar.shape[0]
    nr, nw = ar.shape[1], aw.shape[1]
    c = np.zeros(nr + nw + 1)
    c[-1] = 1.0
    # ar @ pr + aw @ pw - L <= 0
    a_ub = np.hstack([ar, aw, -np.ones((n_nodes, 1))])
    b_ub = np.zeros(n_nodes)
    a_eq = np.zeros((2, nr + nw + 1))
    a_eq[0, :nr] = 1.0
    a_eq[1, nr:nr + nw] = 1.0
    b_eq = np.ones(2)
    bounds = [(0, None)] * (nr + nw) + [(0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - feasible by construction
        raise RuntimeError(f"LP solver failed: {res.message}")
    pr = np.clip(res.x[:nr], 0.0, None)
    pw = np.clip(res.x[nr:nr + nw], 0.0, None)
    return pr / pr.sum(), pw / pw.sum()


def _minimax_mw(ar: np.ndarray, aw: np.ndarray,
                iterations: int = MW_ITERATIONS
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Pure-numpy approximate LP via multiplicative weights.

    The minimax program is a zero-sum game: the adversary mixes over
    nodes (rows), the strategy mixes over quorums (columns, one simplex
    per side).  Hedge on the adversary against best-response columns
    converges to the game value at rate O(sqrt(log n / T)); the averaged
    best responses form the strategy.  Accurate to ~1e-2 at the default
    iteration budget — the scipy path is preferred whenever available.
    """
    n_nodes = ar.shape[0]
    weights = np.ones(n_nodes)
    sum_pr = np.zeros(ar.shape[1])
    sum_pw = np.zeros(aw.shape[1])
    eta = math.sqrt(math.log(max(2, n_nodes)) / iterations)
    scale = max(ar.max(initial=0.0), aw.max(initial=0.0), 1e-12)
    for _ in range(iterations):
        y = weights / weights.sum()
        # Best response: all read mass on the column minimizing the
        # adversary-weighted load (same for writes).
        br_r = np.argmin(y @ ar)
        br_w = np.argmin(y @ aw)
        sum_pr[br_r] += 1.0
        sum_pw[br_w] += 1.0
        payoff = (ar[:, br_r] + aw[:, br_w]) / (2.0 * scale)
        weights *= np.exp(eta * payoff)
        if weights.max() > 1e100:
            weights /= weights.max()
    return sum_pr / iterations, sum_pw / iterations
