"""Test-side oracles for the runtime's single path per layer.

The runtime ships one neighbor path (the numpy kernel) and one body per
transmission primitive, with batched kernels in front of the flood ring
and path forwarding that decline on conditions they observe.  The
independent implementations those are held to live here, outside
``src/``:

* :mod:`reference.neighbors` — a brute-force O(n²) neighbor oracle over
  ``net.position()``, and a :class:`SimNetwork` whose every neighbor
  query is answered by it;
* :mod:`reference.binning` — the binning pass of
  ``repro.geometry.kernel`` in its earlier spelling (``searchsorted``
  cell bounds, fancy-index gathers, ``lexsort`` pair order), and a
  scalar O(n²) pair list; imported as ``reference.binning``;
* :mod:`reference.access` — an ``AccessEngine`` stand-in whose batched
  kernels (flood ring, bulk forwarding) all decline and
  whose BFS trees are rebuilt in Python on every call, so a network
  carrying it sends every frame through the per-event primitives; and
  an early-exit BFS + capped ring count, the independent reference for
  tree-based route discovery, and ``check_tree`` holding one tree to
  both;
* :mod:`reference.phy` — the two radio channels with an on-air ledger
  that never forgets (every frame scans every transmission ever made),
  what the pruned ledger of ``repro.phy.channel`` is held to; the same
  channels resolving each frame per candidate with scalar
  ``position_of`` / ``distance`` / path-loss calls, what the cached link
  rows are held to bit for bit; and ``fixed_env``, a real
  ``StackEnvironment`` over hand-placed nodes for the PHY, MAC and net
  unit tests.  Imported as ``reference.phy`` by the packet-level tests
  only.
* :mod:`reference.membership` — the eager epoch recipe of
  ``RandomMembership``: every alive node's view drawn at the refresh,
  from its own (epoch key, node) stream over a filtered pool, what the
  lazily drawn views are held to.
* :mod:`reference.kv_kernel` — the batched kv kernel in its per-key
  spelling (writes committed one at a time, each cas decided by a full
  single-read decision, per-key overwrite sorts and depth walks), what
  the whole-stream passes of ``run_workload_batched`` are held to field
  for field; imported as ``reference.kv_kernel``.
"""

from reference.access import (
    DecliningEngine,
    bfs_path,
    check_tree,
    per_event,
    ring_size,
)
from reference.membership import EagerViews
from reference.neighbors import (
    BruteForceNetwork,
    brute_force_tables,
    pairwise_tables,
)

__all__ = [
    "BruteForceNetwork",
    "DecliningEngine",
    "EagerViews",
    "bfs_path",
    "brute_force_tables",
    "check_tree",
    "pairwise_tables",
    "per_event",
    "ring_size",
]
