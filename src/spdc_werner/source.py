"""Down-conversion source: gain parameters and ideal n-pair emission states.

The source emits polarization-entangled photon pairs into two spatial modes.
At nonlinear gain g, the n-pair term carries probability weight
(n+1) * tanh(g)^(2n) / cosh(g)^4 (summed by the series check in
``channel``), and within each term the polarization structure is the
n-fold singlet superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import PureState, TRANSMITTED_MODES


@dataclass(frozen=True)
class GainChannelParams:
    """Nonlinear gain g plus channel transmittivity eta, with derived scalars.

    eta is the per-photon transmission probability of the loss channel,
    assumed identical for every spatial mode and polarization.
    """

    g: float
    eta: float = 0.0

    def __post_init__(self):
        if not self.g >= 0:
            raise ValueError(f"gain must be non-negative, got {self.g}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmittivity must lie in [0, 1], got {self.eta}")

    @property
    def gamma_tilde(self) -> float:
        """(1 - eta) * tanh(g): the loss-attenuated gain parameter."""
        return (1.0 - self.eta) * math.tanh(self.g)

    @property
    def n_bar(self) -> float:
        """Mean photons generated per mode, sinh(g)^2; inf beyond g of about
        355.58, where that overflows a double."""
        try:
            return math.sinh(self.g) ** 2
        except OverflowError:
            return math.inf


def n_pair_singlet(n: int) -> PureState:
    """Normalized n-pair singlet term over the four source modes.

    The n+1 amplitudes are (-1)^m / sqrt(n+1) on occupation
    (n-m, m, m, n-m) for m = 0..n; n = 0 is the vacuum.
    """
    if n < 0:
        raise ValueError(f"pair number must be non-negative, got {n}")
    amp = 1.0 / math.sqrt(n + 1)
    amplitudes = {
        (n - m, m, m, n - m): (-1) ** m * amp
        for m in range(n + 1)
    }
    return PureState(TRANSMITTED_MODES, amplitudes)


def mean_photons_per_mode(params: GainChannelParams) -> float:
    """sinh(g)^2, the average photon number generated per mode."""
    return params.n_bar
