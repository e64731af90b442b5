"""Down-conversion source: the closed form of a point, and n-pair emission states.

Every scalar that the paper's formula gives at a point (g, eta) of the domain
:class:`GainChannelParams` accepts (g > 0, 0 < eta < 1) is computed here, with
the standard library only: the singlet weight, the Werner metrics that follow
from it, and the photons per mode behind the high-loss warning. The source's
n-pair term, of weight (n+1) * tanh(g)^(2n) / cosh(g)^4, is the n-fold
singlet superposition of :func:`n_pair_singlet`.
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


def singlet_weight(params: GainChannelParams) -> float:
    """Singlet weight of the gain-summed two-photon Werner state.

    p = 1 / (2*((1-eta)*tanh g)^2 + 1), in (1/3, 1] on the domain of
    :class:`GainChannelParams`, g > 0 and 0 < eta < 1; exactly 1/3 where
    (1-eta)*tanh g rounds to 1.
    """
    return 1.0 / (2.0 * params.gamma_tilde**2 + 1.0)


@dataclass(frozen=True)
class WernerDescriptor:
    """Scalar summary of a Werner state with weight p."""

    p: float

    def __post_init__(self):
        if not -1.0 / 3.0 <= self.p <= 1.0:
            raise ValueError(f"Werner weight must lie in [-1/3, 1], got {self.p}")

    @property
    def is_entangled(self) -> bool:
        return self.p > 1.0 / 3.0

    @property
    def tangle(self) -> float:
        return max(0.0, (3.0 * self.p - 1.0) / 2.0) ** 2

    @property
    def linear_entropy(self) -> float:
        return 1.0 - self.p**2

    @property
    def witness_value(self) -> float:
        return (1.0 - 3.0 * self.p) / 4.0


def mean_photons_per_mode(g: float) -> float:
    """sinh(g)^2, the average photon number generated per mode at gain g;
    inf beyond g of about 355.58, where that overflows a double."""
    try:
        return math.sinh(g) ** 2
    except OverflowError:
        return math.inf


def transmitted_photons_per_mode(params: GainChannelParams) -> float:
    """eta * sinh(g)^2: mean photons per mode surviving the channel.

    The two-photon coincidence treatment assumes this is much less than 1;
    the CLI warns above 0.1. Past g of about 355.58, where sinh(g)^2
    overflows, sinh(g) = e^g / 2 to double precision and the product is
    formed in logarithms; inf only where it overflows itself.
    """
    level = params.eta * mean_photons_per_mode(params.g)
    if level < math.inf:
        return level
    try:
        return math.exp(math.log(params.eta) + 2.0 * (params.g - math.log(2.0)))
    except OverflowError:
        return math.inf
