"""Mobility substrate: waypoint trajectories and lazy position tracking."""

from repro.mobility.models import (
    FixedPlacement,
    Leg,
    MobilityManager,
    MobilityModel,
    RandomWaypoint,
    StaticPlacement,
)

__all__ = [
    "FixedPlacement",
    "Leg",
    "MobilityManager",
    "MobilityModel",
    "RandomWaypoint",
    "StaticPlacement",
]
