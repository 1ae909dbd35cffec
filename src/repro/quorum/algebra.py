"""A declarative quorum-system algebra (quoracle-style).

The paper's probabilistic quorums are one point in a much larger design
space.  This module provides the classical, *deterministic* side of that
space as an expression algebra:

* :class:`Node` — a single replica;
* :class:`And` — a quorum must contain a quorum of **every** child
  (``e1 * e2``);
* :class:`Or` — a quorum must contain a quorum of **some** child
  (``e1 + e2``);
* :class:`Choose` — a quorum must contain quorums of at least ``k``
  of the children (generalises both: ``And = Choose(len)``,
  ``Or = Choose(1)``).

Every expression has a :meth:`~Expr.dual` obtained by swapping And/Or
(``Choose(k, es)`` dualises to ``Choose(len(es)-k+1, duals)``); an
expression and its dual always form an intersecting read/write biquorum
pair, which :class:`QuorumSystem` checks explicitly.

The design follows "Read-Write Quorum Systems Made Practical" (quoracle,
see PAPERS.md); the load/availability definitions cross-checked by the
simulator come from "The Load and Availability of Byzantine Quorum
Systems".  Unlike quoracle the expression elements here are usually the
simulator's integer node ids, so an algebraic system can be dropped
straight onto a :class:`~repro.simnet.network.SimNetwork` via
:class:`~repro.quorum.access.AlgebraicStrategy`.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Abstract element type (simulator node ids or symbolic names).
Element = Hashable

#: Safety valve for quorum enumeration: expressions whose quorum set
#: exceeds this raise instead of silently eating memory.
MAX_ENUMERATED_QUORUMS = 100_000


class Expr:
    """Base class of quorum expressions.

    Subclasses implement :meth:`quorums` (enumerate all quorums, possibly
    with repeats), :meth:`is_quorum`, and :meth:`dual`.  ``+`` is
    :class:`Or`, ``*`` is :class:`And` (quoracle's operator convention).
    """

    def quorums(self) -> Iterator[FrozenSet[Element]]:
        raise NotImplementedError

    def is_quorum(self, xs: Iterable[Element]) -> bool:
        raise NotImplementedError

    def dual(self) -> "Expr":
        raise NotImplementedError

    def elements(self) -> FrozenSet[Element]:
        """Every element mentioned anywhere in the expression."""
        raise NotImplementedError

    def __add__(self, rhs: "Expr") -> "Expr":
        return Or([self, rhs])

    def __mul__(self, rhs: "Expr") -> "Expr":
        return And([self, rhs])

    def __eq__(self, other: Any) -> bool:
        return (type(self) is type(other)
                and self._key() == other._key())

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Tuple:
        raise NotImplementedError


class Node(Expr):
    """A single replica; its own (only) quorum, self-dual."""

    __slots__ = ("x",)

    def __init__(self, x: Element) -> None:
        self.x = x

    def quorums(self) -> Iterator[FrozenSet[Element]]:
        yield frozenset((self.x,))

    def is_quorum(self, xs: Iterable[Element]) -> bool:
        return self.x in set(xs)

    def dual(self) -> "Expr":
        return self

    def elements(self) -> FrozenSet[Element]:
        return frozenset((self.x,))

    def _key(self) -> Tuple:
        return (self.x,)

    def __str__(self) -> str:
        return str(self.x)

    def __repr__(self) -> str:
        return f"Node({self.x!r})"


class _Compound(Expr):
    """Shared machinery of And/Or/Choose."""

    __slots__ = ("es",)

    def __init__(self, es: Sequence[Expr]) -> None:
        if not es:
            raise ValueError(
                f"{type(self).__name__} needs at least one subexpression")
        if not all(isinstance(e, Expr) for e in es):
            raise TypeError("subexpressions must be Expr instances")
        self.es = list(es)

    def elements(self) -> FrozenSet[Element]:
        return frozenset().union(*(e.elements() for e in self.es))

    def _key(self) -> Tuple:
        return tuple(self.es)


class And(_Compound):
    """A quorum of every child (``*``). Dual: :class:`Or` of duals."""

    def quorums(self) -> Iterator[FrozenSet[Element]]:
        for parts in itertools.product(*(e.quorums() for e in self.es)):
            yield frozenset().union(*parts)

    def is_quorum(self, xs: Iterable[Element]) -> bool:
        xs = set(xs)
        return all(e.is_quorum(xs) for e in self.es)

    def dual(self) -> Expr:
        return Or([e.dual() for e in self.es])

    def __str__(self) -> str:
        return "(" + " * ".join(str(e) for e in self.es) + ")"

    def __repr__(self) -> str:
        return f"And({self.es!r})"


class Or(_Compound):
    """A quorum of some child (``+``). Dual: :class:`And` of duals."""

    def quorums(self) -> Iterator[FrozenSet[Element]]:
        for e in self.es:
            yield from e.quorums()

    def is_quorum(self, xs: Iterable[Element]) -> bool:
        xs = set(xs)
        return any(e.is_quorum(xs) for e in self.es)

    def dual(self) -> Expr:
        return And([e.dual() for e in self.es])

    def __str__(self) -> str:
        return "(" + " + ".join(str(e) for e in self.es) + ")"

    def __repr__(self) -> str:
        return f"Or({self.es!r})"


class Choose(_Compound):
    """Quorums of at least ``k`` of the children.

    ``Choose(k, es)`` dualises to ``Choose(len(es) - k + 1, duals)``:
    any k-subset and any (n-k+1)-subset of the children overlap in at
    least one child, whose sub-quorums intersect by induction.
    """

    __slots__ = ("k",)

    def __init__(self, k: int, es: Sequence[Expr]) -> None:
        super().__init__(es)
        if not 1 <= k <= len(es):
            raise ValueError(
                f"k must be in [1, {len(es)}], got {k}")
        self.k = k

    def quorums(self) -> Iterator[FrozenSet[Element]]:
        for combo in itertools.combinations(self.es, self.k):
            for parts in itertools.product(*(e.quorums() for e in combo)):
                yield frozenset().union(*parts)

    def is_quorum(self, xs: Iterable[Element]) -> bool:
        xs = set(xs)
        return sum(1 for e in self.es if e.is_quorum(xs)) >= self.k

    def dual(self) -> Expr:
        return Choose(len(self.es) - self.k + 1,
                      [e.dual() for e in self.es])

    def _key(self) -> Tuple:
        return (self.k, *self.es)

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.es)
        return f"choose{self.k}({inner})"

    def __repr__(self) -> str:
        return f"Choose({self.k}, {self.es!r})"


# -- convenience constructors -----------------------------------------------


def _wrap(xs: Sequence[Any]) -> List[Expr]:
    return [x if isinstance(x, Expr) else Node(x) for x in xs]


def choose(k: int, xs: Sequence[Any]) -> Expr:
    """At least ``k`` of ``xs`` (elements are auto-wrapped in Node)."""
    es = _wrap(xs)
    if k == 1:
        return Or(es)
    if k == len(es):
        return And(es)
    return Choose(k, es)


def majority(xs: Sequence[Any]) -> Expr:
    """Strict majority of ``xs``."""
    es = _wrap(xs)
    return choose(len(es) // 2 + 1, es)


def grid(rows: Sequence[Sequence[Any]]) -> Expr:
    """Grid reads: one full row (``r1 + r2 + ...`` of row-Ands).

    The dual (grid writes) is one element from every row — the classical
    row/column-transversal grid biquorum.
    """
    return Or([And(_wrap(row)) for row in rows])


def chain(xs: Sequence[Any]) -> Expr:
    """A chained quorum system over ``xs``: reads are any consecutive
    pair ``{x_i, x_{i+1}}`` (the lone element for a 1-chain); writes are
    the dual — one element from every link, i.e. a vertex cover of the
    chain."""
    es = _wrap(xs)
    if len(es) == 1:
        return es[0]
    return Or([And([a, b]) for a, b in zip(es, es[1:])])


# -- quorum systems ----------------------------------------------------------


def enumerate_quorums(expr: Expr) -> List[FrozenSet[Element]]:
    """Deduplicated, superset-pruned, deterministically ordered quorums.

    Pruning strict supersets is sound for every metric we optimize: a
    strategy placing mass on a superset quorum can move that mass to the
    contained quorum without increasing any node's load, the network
    cost, or the latency.
    """
    seen: set = set()
    unique: List[FrozenSet[Element]] = []
    for i, q in enumerate(expr.quorums()):
        if i >= MAX_ENUMERATED_QUORUMS:
            raise ValueError(
                f"expression enumerates more than {MAX_ENUMERATED_QUORUMS} "
                "quorums; simplify it or raise MAX_ENUMERATED_QUORUMS")
        if q not in seen:
            seen.add(q)
            unique.append(q)
    minimal = [q for q in unique
               if not any(other < q for other in unique)]
    return sorted(minimal, key=lambda q: (len(q), sorted(map(repr, q))))


class NotIntersecting(ValueError):
    """The read and write expressions do not form a biquorum."""


class QuorumSystem:
    """A read/write biquorum pair with an intersection checker.

    Given only ``reads``, writes default to ``reads.dual()`` (and vice
    versa) — the dual pair always intersects.  Explicit pairs are
    checked quorum-by-quorum at construction; a non-intersecting pair
    raises :class:`NotIntersecting`.
    """

    def __init__(self, reads: Optional[Expr] = None,
                 writes: Optional[Expr] = None) -> None:
        if reads is None and writes is None:
            raise ValueError("need reads, writes, or both")
        if reads is None:
            reads = writes.dual()
        if writes is None:
            writes = reads.dual()
        self.reads = reads
        self.writes = writes
        self._read_quorums = enumerate_quorums(reads)
        self._write_quorums = enumerate_quorums(writes)
        bad = self.non_intersecting_pair()
        if bad is not None:
            raise NotIntersecting(
                f"read quorum {sorted(map(repr, bad[0]))} does not "
                f"intersect write quorum {sorted(map(repr, bad[1]))}")

    def non_intersecting_pair(
            self) -> Optional[Tuple[FrozenSet, FrozenSet]]:
        """First read/write quorum pair with empty intersection, if any."""
        for r in self._read_quorums:
            for w in self._write_quorums:
                if not (r & w):
                    return (r, w)
        return None

    def read_quorums(self) -> List[FrozenSet[Element]]:
        return list(self._read_quorums)

    def write_quorums(self) -> List[FrozenSet[Element]]:
        return list(self._write_quorums)

    def elements(self) -> FrozenSet[Element]:
        return self.reads.elements() | self.writes.elements()

    def __len__(self) -> int:
        return len(self.elements())

    def strategy(self, **kwargs):
        """Solve for quorum-selection probabilities (see
        :func:`repro.quorum.strategy.solve_strategy`)."""
        from repro.quorum.strategy import solve_strategy
        return solve_strategy(self, **kwargs)

    def __str__(self) -> str:
        return f"QuorumSystem(reads={self.reads}, writes={self.writes})"

    def __repr__(self) -> str:
        return (f"QuorumSystem(reads={self.reads!r}, "
                f"writes={self.writes!r})")


# -- canned systems over simulator node ids ----------------------------------


def majority_system(ids: Sequence[Element]) -> QuorumSystem:
    """Majority reads and writes over ``ids`` (self-dual for odd sizes)."""
    return QuorumSystem(reads=majority(ids))


def grid_system(ids: Sequence[Element]) -> QuorumSystem:
    """Row-reads / row-transversal-writes grid over ``ids``.

    ``ids`` is reshaped into the squarest grid.
    """
    n = len(ids)
    rows = max(1, int(round(n ** 0.5)))
    if n % rows != 0:
        raise ValueError(f"cannot reshape {n} ids into {rows} rows")
    cols = n // rows
    table = [list(ids[r * cols:(r + 1) * cols]) for r in range(rows)]
    return QuorumSystem(reads=grid(table))


def chain_system(ids: Sequence[Element]) -> QuorumSystem:
    """Consecutive-pair reads over ``ids``, dual writes."""
    return QuorumSystem(reads=chain(ids))


BUILTIN_SYSTEMS = {
    "majority": majority_system,
    "grid": grid_system,
    "chain": chain_system,
}


def build_system(name: str, ids: Sequence[Element]) -> QuorumSystem:
    """A builtin system by name over concrete node ids."""
    try:
        factory = BUILTIN_SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown quorum system {name!r}; "
            f"builtins: {sorted(BUILTIN_SYSTEMS)}") from None
    return factory(ids)
