"""2-D deployment areas and the one distance contract.

The paper's theory lives on the unit torus (to avoid boundary effects in the
random-geometric-graph analysis) while its simulations live on a flat square
plane scaled so that ``area = pi * r^2 * n / d_avg`` (Section 2.4).

Every range decision in the package measures separation here:
:func:`distance` for one pair, :func:`distances` for many.  The graph
floor's neighbor kernel and ``SimNetwork.in_range``, the packet floor's
``StackEnvironment`` (and through it both radio channels and
``PacketQuorumNetwork.in_range``) and :mod:`repro.geometry.rgg` all call
them.  Both forms spell the same steps: per-axis ``abs``, the torus wrap
``min(d, side - d)``, then ``sqrt(dx*dx + dy*dy)``.  Each step is a
correctly rounded IEEE 754 ``+ - * sqrt``, so the two forms agree bit for
bit on any SIMD build, and no two callers can disagree about whether a
pair is in range.  (The library norm functions of ``math`` and ``numpy``
give no such guarantee: on some builds they differ from each other in the
last bit.)
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

Point = Tuple[float, float]


def distance(a: Point, b: Point, side: float, torus: bool) -> float:
    """Separation of two points in the square of the given side."""
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    if torus:
        dx = min(dx, side - dx)
        dy = min(dy, side - dy)
    return math.sqrt(dx * dx + dy * dy)


def distances(points: np.ndarray, origin, side: float,
              torus: bool) -> np.ndarray:
    """Row-wise :func:`distance` from ``points`` (``(k, 2)``) to ``origin``
    (one point, or ``(k, 2)`` paired row by row); equal with ``==`` to the
    scalar form."""
    d = np.abs(points - origin)
    if torus:
        d = np.minimum(d, side - d)
    dx = d[:, 0]
    dy = d[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def area_side_for_density(n: int, radio_range: float, avg_degree: float) -> float:
    """Side length of the square so the mean node degree is ``avg_degree``.

    From Section 2.4: ``a^2 = pi * r^2 * n / d_avg``.  A node's expected
    neighbor count under uniform placement is ``(n-1) * pi r^2 / a^2``; the
    paper uses the ``n`` approximation, which we follow for comparability.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if radio_range <= 0:
        raise ValueError("radio_range must be positive")
    if avg_degree <= 0:
        raise ValueError("avg_degree must be positive")
    return math.sqrt(math.pi * radio_range * radio_range * n / avg_degree)


def critical_range_for_connectivity(n: int) -> float:
    """Gupta–Kumar critical transmission range on the unit square.

    ``r = sqrt(ln(n) / (pi * n))``; connectivity w.h.p. needs a range
    above it (Section 6.1).
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return math.sqrt(math.log(n) / (math.pi * n))
