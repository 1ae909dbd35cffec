"""Signal propagation (path loss) models.

The paper's signal propagation model is Two-Ray ground reflection
(Figure 2).  At the paper's parameters (2.4 GHz, 1.5 m antennas, 15 dBm TX)
this model puts the free-space/two-ray crossover at ~226 m, so:

* received power at 200 m  = -71.0 dBm  (exactly RXThresh -> 200 m ideal range)
* received power at 299 m  = -77.0 dBm  (exactly CSThresh -> 299 m CS range)

i.e. the paper's derived ranges fall out of this model with no fudging.

:class:`TwoRayGround` also has an array form,
:meth:`TwoRayGround.received_power_row`, which the radio channels use to
price one transmitter's link to every node at once.  Both forms are built
from correctly rounded ``+ - * /`` only (no ``**``), in the same order, so
they are equal element for element with ``==`` on any SIMD build.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.phy.params import PhyParams, dbm_to_mw


class PathLossModel(ABC):
    """Maps (transmit power, distance) to received power, in milliwatts."""

    @abstractmethod
    def received_power_mw(self, tx_power_mw: float, distance_m: float) -> float:
        """Received power at ``distance_m`` for the given transmit power."""


@dataclass(frozen=True)
class TwoRayGround(PathLossModel):
    """Two-ray ground reflection with free-space below the crossover.

    Beyond the crossover distance ``dc = 4 pi ht hr / lambda`` the ground
    reflection dominates and Pr = Pt * Gt * Gr * ht^2 hr^2 / d^4.
    """

    wavelength_m: float
    antenna_height_m: float = 1.5
    gain: float = 1.0

    @property
    def crossover_m(self) -> float:
        return (4.0 * math.pi * self.antenna_height_m * self.antenna_height_m
                / self.wavelength_m)

    def received_power_mw(self, tx_power_mw: float, distance_m: float) -> float:
        if distance_m <= 0:
            return tx_power_mw
        if distance_m <= self.crossover_m:
            factor = self.wavelength_m / (4.0 * math.pi * distance_m)
            return tx_power_mw * self.gain * factor * factor
        h2 = self.antenna_height_m * self.antenna_height_m
        d2 = distance_m * distance_m
        return tx_power_mw * self.gain * (h2 * h2) / (d2 * d2)

    def received_power_row(self, tx_power_mw: float,
                           distances: np.ndarray) -> np.ndarray:
        """:meth:`received_power_mw` at every distance, in one array pass.

        Equal with ``==`` to the scalar form at each element.  A distance
        ``<= 0`` (a co-located node) gets the transmit power; it is priced
        as infinitely far first, so no step divides by zero.
        """
        positive = distances > 0
        d = np.where(positive, distances, math.inf)
        factor = self.wavelength_m / (4.0 * math.pi * d)
        near = tx_power_mw * self.gain * factor * factor
        h2 = self.antenna_height_m * self.antenna_height_m
        d2 = d * d
        far = tx_power_mw * self.gain * (h2 * h2) / (d2 * d2)
        return np.where(positive, np.where(d <= self.crossover_m, near, far),
                        tx_power_mw)


@dataclass(frozen=True)
class InversePowerLaw(PathLossModel):
    """The analysis model of Section 2.3: signal decays as 1/d^alpha.

    Calibrated so that received power equals ``thresh_mw`` exactly at
    ``reference_range_m`` — the form used in the paper's "physical model"
    formula with alpha = 2 by default.
    """

    alpha: float = 2.0
    reference_range_m: float = 200.0
    reference_tx_power_mw: float = dbm_to_mw(15.0)
    reference_thresh_mw: float = dbm_to_mw(-71.0)

    def received_power_mw(self, tx_power_mw: float, distance_m: float) -> float:
        if distance_m <= 0:
            return tx_power_mw
        # Pr(d) = Pt * K / d^alpha, with K chosen so the reference holds.
        k = (self.reference_thresh_mw / self.reference_tx_power_mw
             * self.reference_range_m ** self.alpha)
        return tx_power_mw * k / (distance_m ** self.alpha)


def default_pathloss(params: PhyParams) -> TwoRayGround:
    """The paper's propagation model with its antenna parameters."""
    return TwoRayGround(
        wavelength_m=params.wavelength_m,
        antenna_height_m=params.antenna_height_m,
        gain=dbm_to_mw(params.antenna_gain_dbi) if params.antenna_gain_dbi else 1.0,
    )
