"""Declarative quorum algebra, optimizer, and simulator adapter.

Quickstart::

    from repro.quorum import Node, QuorumSystem, majority

    a, b, c = Node(0), Node(1), Node(2)
    qs = QuorumSystem(reads=a * b + b * c + a * c)   # = majority([0,1,2])
    sigma = qs.strategy(read_fraction=0.75, optimize="load")
    sigma.load()          # optimizer-predicted system load
    sigma.sample_read(rng)

See DESIGN.md §12 and ``python -m repro quorum``.
"""

from repro.quorum.algebra import (
    And,
    BUILTIN_SYSTEMS,
    Choose,
    Element,
    Expr,
    Node,
    NotIntersecting,
    Or,
    QuorumSystem,
    build_system,
    chain,
    chain_system,
    choose,
    enumerate_quorums,
    grid,
    grid_system,
    majority,
    majority_system,
)
from repro.quorum.strategy import (
    OBJECTIVES,
    Strategy,
    solve_strategy,
)
from repro.quorum.access import (
    AlgebraicStrategy,
    measured_node_loads,
)

__all__ = [
    "And", "BUILTIN_SYSTEMS", "Choose", "Element", "Expr", "Node",
    "NotIntersecting", "Or", "QuorumSystem", "build_system", "chain",
    "chain_system", "choose", "enumerate_quorums", "grid", "grid_system",
    "majority", "majority_system",
    "OBJECTIVES", "Strategy", "solve_strategy",
    "AlgebraicStrategy", "measured_node_loads", 
]
