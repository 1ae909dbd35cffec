"""Radio substrate: parameters, path loss, SINR and protocol-model channels."""

from repro.phy.channel import (
    NodeEnvironment,
    ProtocolChannel,
    SINRChannel,
    Transmission,
)
from repro.phy.params import DEFAULT_PHY, PhyParams, dbm_to_mw
from repro.phy.pathloss import (
    InversePowerLaw,
    PathLossModel,
    TwoRayGround,
    default_pathloss,
)

__all__ = [
    "NodeEnvironment",
    "ProtocolChannel",
    "SINRChannel",
    "Transmission",
    "DEFAULT_PHY",
    "PhyParams",
    "dbm_to_mw",
    "InversePowerLaw",
    "PathLossModel",
    "TwoRayGround",
    "default_pathloss",
]
