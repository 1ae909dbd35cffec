"""Core contribution: probabilistic biquorum systems and access strategies."""

from repro.core.biquorum import (
    ProbabilisticBiquorum,
    QuorumSizing,
    plan_sizes,
)
from repro.core.gossip import GossipFloodStrategy
from repro.core.leases import LeasedEntry, LeaseTable
from repro.core.masking import MaskingStrategy
from repro.obs.watch import parse_masking_name
from repro.core.strategies import (
    AccessPolicy,
    AccessResult,
    AccessStrategy,
    FloodingStrategy,
    PathStrategy,
    RandomOptStrategy,
    RandomSamplingStrategy,
    RandomStrategy,
    UniquePathStrategy,
)

__all__ = [
    "GossipFloodStrategy",
    "ProbabilisticBiquorum",
    "QuorumSizing",
    "plan_sizes",
    "AccessPolicy",
    "AccessResult",
    "AccessStrategy",
    "FloodingStrategy",
    "LeaseTable",
    "LeasedEntry",
    "MaskingStrategy",
    "parse_masking_name",
    "PathStrategy",
    "RandomOptStrategy",
    "RandomSamplingStrategy",
    "RandomStrategy",
    "UniquePathStrategy",
]
