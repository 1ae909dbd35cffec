"""Radio parameters (the paper's Figure 2, PHY section).

All power thresholds are reproduced verbatim.  The derived quantities
(200 m ideal reception range, 299 m carrier-sensing range) follow from the
two-ray ground model at 2.4 GHz with 1.5 m antennas — see
``repro.phy.pathloss`` for the calibration check.
"""

from __future__ import annotations

from dataclasses import dataclass


def dbm_to_mw(dbm: float) -> float:
    """Convert dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


SPEED_OF_LIGHT = 2.998e8  # m/s

#: IP + MAC + PHY header bytes carried by every frame.
HEADER_BYTES = 58


@dataclass(frozen=True)
class PhyParams:
    """802.11b-style PHY parameters (paper defaults)."""

    tx_power_dbm: float = 15.0           # 31.62 mW
    rx_thresh_dbm: float = -71.0         # reception threshold (RXThresh)
    cs_thresh_dbm: float = -77.0         # carrier-sense threshold (CSThresh)
    noise_dbm: float = -101.0            # thermal background noise
    sinr_thresh: float = 10.0            # beta (CPThresh), linear ratio
    frequency_hz: float = 2.4e9
    antenna_height_m: float = 1.5
    antenna_gain_dbi: float = 0.0
    unicast_rate_bps: float = 11e6       # 11 Mbps unicast
    broadcast_rate_bps: float = 2e6      # 2 Mbps broadcast
    ideal_range_m: float = 200.0
    carrier_sense_range_m: float = 299.0

    @property
    def tx_power_mw(self) -> float:
        return dbm_to_mw(self.tx_power_dbm)

    @property
    def rx_thresh_mw(self) -> float:
        return dbm_to_mw(self.rx_thresh_dbm)

    @property
    def cs_thresh_mw(self) -> float:
        return dbm_to_mw(self.cs_thresh_dbm)

    @property
    def noise_mw(self) -> float:
        return dbm_to_mw(self.noise_dbm)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    def tx_duration(self, payload_bytes: int,
                    broadcast: bool = False) -> float:
        """Airtime of a frame (payload + IP/MAC/PHY headers, Section 2.4)."""
        bits = 8 * (payload_bytes + HEADER_BYTES)
        rate = self.broadcast_rate_bps if broadcast else self.unicast_rate_bps
        return bits / rate


DEFAULT_PHY = PhyParams()
