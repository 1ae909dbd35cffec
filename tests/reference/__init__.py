"""Test-side oracles for the runtime's single path per layer.

The runtime ships one neighbor path (the numpy kernel) and one access
path whose batched kernels decline to the per-event code on conditions
they observe.  The independent implementations the fast paths are held
to live here, outside ``src/``:

* :mod:`reference.neighbors` — a brute-force O(n²) neighbor oracle over
  ``net.position()``, and a :class:`SimNetwork` whose every neighbor
  query is answered by it;
* :mod:`reference.access` — an ``AccessEngine`` stand-in whose every
  kernel declines, so a network carrying it runs the exact per-event
  code for floods, route discovery, forwarding and walks.
"""

from reference.access import DecliningEngine, per_event
from reference.neighbors import (
    BruteForceNetwork,
    brute_force_tables,
    pairwise_tables,
)

__all__ = [
    "BruteForceNetwork",
    "DecliningEngine",
    "brute_force_tables",
    "pairwise_tables",
    "per_event",
]
