"""Down-conversion source: the closed form of a point, and n-pair emission states.

Every scalar that the paper's formula gives at a point (g, eta) of the domain
:class:`GainChannelParams` accepts (g > 0, 0 < eta < 1) is computed here, with
the standard library only: the singlet weight, its margin over 1/3 without
cancellation, the Werner metrics that follow from them, and the photons per
mode behind the high-loss warning. The source's n-pair term, of weight
(n+1) * tanh(g)^(2n) / cosh(g)^4, is the n-fold singlet superposition of
:func:`n_pair_singlet`.
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
    (1-eta)*tanh g rounds to 1, where :meth:`WernerDescriptor.at` still
    resolves the margin p - 1/3.
    """
    return 1.0 / (2.0 * params.gamma_tilde**2 + 1.0)


@dataclass(frozen=True)
class WernerDescriptor:
    """Scalar summary of a Werner state with weight p.

    ``delta`` is the entanglement margin p - 1/3, from which ``is_entangled``,
    ``tangle`` = (9/4) delta^2 and ``witness_value`` = -3 delta / 4 follow.
    Left out, it is p - 1/3, which keeps only the digits of p that lie above
    1/3: near p = 1/3 it cancels, and where p rounds to 1/3 it is 0.
    :meth:`at` gives it at a point of the paper's state without that loss.
    The matrix-level ``metrics.is_entangled_ppt`` keeps its -1e-10
    eigenvalue floor, so it sees a Werner state as entangled only above a
    margin of about 1.3e-10; below that only this scalar route can tell.
    """

    p: float
    delta: float | None = None

    def __post_init__(self):
        if not -1.0 / 3.0 <= self.p <= 1.0:
            raise ValueError(f"Werner weight must lie in [-1/3, 1], got {self.p}")
        if self.delta is None:
            object.__setattr__(self, "delta", self.p - 1.0 / 3.0)

    @classmethod
    def at(cls, params: GainChannelParams) -> WernerDescriptor:
        """The descriptor of the paper's state at ``params``.

        p is :func:`singlet_weight`'s 1 / (2x + 1), x = ((1-eta) tanh g)^2,
        and delta = p - 1/3 = 2(1 - x) / (3(1 + 2x)) with the same x, where

            1 - x = eta (2 - eta) + (1 - eta)^2 sech^2 g,
            sech^2 g = 4e / (1 + e)^2,  e = exp(-2g),

        is a sum of non-negative terms, so nothing cancels as x -> 1 and
        nothing overflows as g grows. delta keeps its relative accuracy to a
        few ulps, so ``is_entangled`` holds wherever the exact margin is
        above the smallest subnormal, 4.9e-324; below that it underflows to
        0, as at (g, eta) = (400, 5e-324), where it is 2.2e-324.
        """
        g, eta = params.g, params.eta
        x = params.gamma_tilde**2
        e = math.exp(-2.0 * g)
        one_minus_x = eta * (2.0 - eta) + (1.0 - eta) ** 2 * (4.0 * e / (1.0 + e) ** 2)
        return cls(1.0 / (2.0 * x + 1.0), 2.0 * one_minus_x / (3.0 * (1.0 + 2.0 * x)))

    @property
    def is_entangled(self) -> bool:
        return self.delta > 0.0

    @property
    def tangle(self) -> float:
        """(9/4) delta^2 where delta > 0; it underflows to 0 below delta of
        about 1e-162, and loses relative accuracy below about 1e-154."""
        return max(0.0, 1.5 * self.delta) ** 2

    @property
    def linear_entropy(self) -> float:
        return 1.0 - self.p**2

    @property
    def witness_value(self) -> float:
        # 0 - delta, not -delta: a zero margin gives +0.0, not -0.0
        return 0.75 * (0.0 - self.delta)


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
