"""Down-conversion source: gain parameters and ideal n-pair emission states.

The source emits polarization-entangled photon pairs into two spatial modes.
At nonlinear gain g, the n-pair term carries probability weight
(n+1) * tanh(g)^(2n) / cosh(g)^4 (summed by the series check in
``channel``), and within each term the polarization structure is the
n-fold singlet superposition. An emission state is a plain dict from the
occupation tuple over the four source modes (1H, 1V, 2H, 2V) to its
complex amplitude.

The coincidence state is defined for g > 0 and 0 < eta < 1, the one domain
:class:`GainChannelParams` accepts and every state consumer relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def require_open_channel(eta: float) -> None:
    """Raise ``ValueError`` unless 0 < eta < 1 (NaN included)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"transmittivity must lie strictly in (0, 1), got {eta}")


@dataclass(frozen=True)
class GainChannelParams:
    """Nonlinear gain g plus channel transmittivity eta, with derived scalars.

    eta is the per-photon transmission probability of the loss channel,
    assumed identical for every spatial mode and polarization. Both are
    required, and construction raises ``ValueError`` outside the two-photon
    domain: g finite and > 0, 0 < eta < 1.
    """

    g: float
    eta: float

    def __post_init__(self):
        if not self.g >= 0:
            raise ValueError(f"gain must be non-negative, got {self.g}")
        if not math.isfinite(self.g):
            raise ValueError(f"gain must be finite, got {self.g}")
        require_open_channel(self.eta)
        if self.g == 0.0:
            raise ValueError("no pairs are emitted at g = 0; coincidence state undefined")

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


def mean_photons_per_mode(g: float) -> float:
    """sinh(g)^2, the average photon number generated per mode at gain g;
    inf beyond g of about 355.58, where that overflows a double."""
    try:
        return math.sinh(g) ** 2
    except OverflowError:
        return math.inf
