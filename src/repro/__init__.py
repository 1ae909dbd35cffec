"""repro — Probabilistic quorum systems in wireless ad hoc networks.

A full reproduction of Friedman, Kliot & Avin (DSN'08 / ACM TOCS 2010):
probabilistic biquorum systems with mixed access strategies (RANDOM,
RANDOM-OPT, PATH, UNIQUE-PATH, FLOODING) over a discrete-event simulated
mobile ad hoc network, plus the full closed-form theory and the services
built on top (location service, register, key-value store).

Quickstart::

    from repro import (NetworkConfig, SimNetwork, FullMembership,
                       RandomStrategy, UniquePathStrategy,
                       ProbabilisticBiquorum, LocationService)

    net = SimNetwork(NetworkConfig(n=200, avg_degree=10, seed=7))
    membership = FullMembership(net)
    bq = ProbabilisticBiquorum(
        net,
        advertise=RandomStrategy(membership),
        lookup=UniquePathStrategy(),
        epsilon=0.1,
    )
    svc = LocationService(bq)
    svc.advertise(origin=0, key="printer", value=(12, 34))
    print(svc.lookup(origin=150, key="printer").found)
"""

from repro.analysis import (
    asymmetric_quorum_sizes,
    epsilon_for_sizes,
    intersection_probability,
    miss_probability_bound,
    miss_probability_exact,
    optimal_lookup_size,
    optimal_size_ratio,
    required_quorum_product,
    symmetric_quorum_size,
)
from repro.core import (
    AccessResult,
    AccessStrategy,
    FloodingStrategy,
    GossipFloodStrategy,
    PathStrategy,
    ProbabilisticBiquorum,
    QuorumSizing,
    RandomOptStrategy,
    RandomSamplingStrategy,
    RandomStrategy,
    UniquePathStrategy,
    plan_sizes,
)
from repro.membership import (
    FullMembership,
    NetworkSizeEstimator,
    RandomMembership,
)
from repro.obs import (
    AccountingAuditor,
    AuditError,
    AuditViolation,
    EventTrace,
    MetricsRegistry,
    TraceEvent,
)
from repro.services import (
    LocationService,
    ProbabilisticRegister,
    RefreshDaemon,
)
from repro.sim import PeriodicTimer, Simulator
from repro.simnet import (
    ChurnProcess,
    NetworkConfig,
    SimNetwork,
    apply_churn,
)

__version__ = "1.0.0"

__all__ = [
    # theory
    "asymmetric_quorum_sizes",
    "epsilon_for_sizes",
    "intersection_probability",
    "miss_probability_bound",
    "miss_probability_exact",
    "optimal_lookup_size",
    "optimal_size_ratio",
    "required_quorum_product",
    "symmetric_quorum_size",
    # core
    "AccessResult",
    "AccessStrategy",
    "FloodingStrategy",
    "GossipFloodStrategy",
    "PathStrategy",
    "ProbabilisticBiquorum",
    "QuorumSizing",
    "RandomOptStrategy",
    "RandomSamplingStrategy",
    "RandomStrategy",
    "UniquePathStrategy",
    "plan_sizes",
    # substrates
    "FullMembership",
    "NetworkSizeEstimator",
    "RandomMembership",
    "PeriodicTimer",
    "Simulator",
    "ChurnProcess",
    "NetworkConfig",
    "SimNetwork",
    "apply_churn",
    # observability
    "AccountingAuditor",
    "AuditError",
    "AuditViolation",
    "EventTrace",
    "MetricsRegistry",
    "TraceEvent",
    # services
    "LocationService",
    "ProbabilisticRegister",
    "RefreshDaemon",
    "__version__",
]
