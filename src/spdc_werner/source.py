"""Down-conversion source: gain parameters and ideal n-pair emission states.

The source emits polarization-entangled photon pairs into two spatial modes.
At nonlinear gain g, the n-pair term carries probability weight
(n+1) * tanh(g)^(2n) / cosh(g)^4 (summed by the series check in
``channel``), and within each term the polarization structure is the
n-fold singlet superposition. An emission state is a plain dict from the
occupation tuple over the four source modes (1H, 1V, 2H, 2V) to its
complex amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
        if not math.isfinite(self.g):
            raise ValueError(f"gain must be finite, got {self.g}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmittivity must lie in [0, 1], got {self.eta}")

    @property
    def gamma_tilde(self) -> float:
        """(1 - eta) * tanh(g): the loss-attenuated gain parameter."""
        return (1.0 - self.eta) * math.tanh(self.g)


def n_pair_singlet(n: int) -> dict[tuple[int, int, int, int], complex]:
    """Normalized n-pair singlet term over the four source modes.

    The n+1 amplitudes are (-1)^m / sqrt(n+1) on occupation
    (n-m, m, m, n-m) for m = 0..n; n = 0 is the vacuum.
    """
    if n < 0:
        raise ValueError(f"pair number must be non-negative, got {n}")
    amp = 1.0 / math.sqrt(n + 1)
    return {(n - m, m, m, n - m): complex((-1) ** m * amp) for m in range(n + 1)}


def mean_photons_per_mode(params: GainChannelParams) -> float:
    """sinh(g)^2, the average photon number generated per mode; inf beyond g
    of about 355.58, where that overflows a double."""
    try:
        return math.sinh(params.g) ** 2
    except OverflowError:
        return math.inf
