"""Deterministic random-number streams.

The paper seeded Java's PRNG with wall-clock time; for reproducibility we
instead derive independent named substreams from a single master seed, so
each subsystem (mobility, MAC backoff, random walks, workload, churn, ...)
gets its own stream and experiments are exactly repeatable.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional

import numpy as np


def _derive_seed(master_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_stream_seed(master_seed: int, name: str) -> int:
    """Public seed derivation (same function the registry uses).

    Lets callers pre-compute the seed of a named stream — e.g. the
    Monte-Carlo engine reseeding per-replica workload streams — without
    instantiating a registry.
    """
    return _derive_seed(master_seed, name)


def replica_seeds(master_seed: int, count: int) -> List[int]:
    """``count`` independent replica seeds from one master seed.

    Uses a counter-based Philox generator keyed off the master seed, so
    the list is *prefix-stable*: ``replica_seeds(s, k)`` is a prefix of
    ``replica_seeds(s, m)`` for ``k <= m``.  A sequential-stopping rule
    can therefore extend a replication run without perturbing the seeds
    (and hence the results) of the replicas already executed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return []
    key = _derive_seed(master_seed, "philox:replicas")
    gen = np.random.Generator(np.random.Philox(key=key))
    return [int(s) for s in
            gen.integers(0, 2**63, size=count, dtype=np.int64)]


class RngRegistry:
    """Factory for named, independent PRNG streams.

    ``stream(name)`` returns a ``random.Random``.  The same (seed, name)
    pair always yields an identically-seeded generator.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the named stdlib PRNG stream."""
        if name not in self._streams:
            self._streams[name] = random.Random(
                _derive_seed(self.master_seed, name)
            )
        return self._streams[name]

    def seed_stream(self, name: str, seed: int) -> random.Random:
        """(Re)seed the named stdlib stream explicitly.

        Replaces whatever generator the name held, so later ``stream(name)``
        calls return a generator seeded with ``seed`` instead of the
        registry-derived default.  The replication engine uses this to give
        each replica its own workload randomness while the deployment
        streams (placement, mobility, churn) stay tied to the network seed.
        """
        generator = random.Random(seed)
        self._streams[name] = generator
        return generator

    def fork(self, name: str, seed_offset: Optional[int] = None) -> "RngRegistry":
        """Derive a child registry (e.g. one per simulation run)."""
        extra = 0 if seed_offset is None else seed_offset
        return RngRegistry(_derive_seed(self.master_seed, f"fork:{name}:{extra}"))
