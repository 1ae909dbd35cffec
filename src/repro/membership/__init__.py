"""Membership substrate: full and RaWMS-style random membership services,
plus random-walk network-size estimation."""

from repro.membership.estimation import NetworkSizeEstimator, SizeEstimate
from repro.membership.service import (
    FullMembership,
    MembershipFreezeMixin,
    RandomMembership,
)

__all__ = [
    "FullMembership",
    "MembershipFreezeMixin",
    "RandomMembership",
    "NetworkSizeEstimator",
    "SizeEstimate",
]
