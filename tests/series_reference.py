"""The pair-number series of the post-selected two-photon block, summed
term by term at one point: the reference the tests check the closed form
against.

Summing the blocks of ``channel.two_photon_block_closed`` over the pair
numbers, weighted by the emission probabilities, and normalizing gives the
Werner state of ``source.singlet_weight``. The package returns that closed
form; this module sums the blocks themselves, doubling the truncation until
an analytic tail bound says the rest is negligible. There is no cap on the
number of terms: near x = 1 a point takes millions of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spdc_werner.source import GainChannelParams

SERIES_MIN_TERMS = 50
SERIES_TAIL_TOL = 1e-12
# Terms per block of the power sums; bounds their memory at any truncation.
_BLOCK = 1 << 18


@dataclass(frozen=True)
class PairSeries:
    """The number of terms summed and the trace-normalized block entries
    (corner, middle, off), laid out as in ``channel.two_photon_block_closed``."""

    n_terms: int
    corner: float
    middle: float
    off: float

    @property
    def p(self) -> float:
        """Singlet weight r22 + r33 - r11 - r44 of the summed block."""
        return self.middle + self.middle - self.corner - self.corner


def pair_number_series(params: GainChannelParams) -> PairSeries:
    """Sum the pair-number series of the two-photon block at params.

    Weighs each block of ``channel.two_photon_block_closed`` by (n+1) *
    tanh(g)^(2n) / cosh(g)^4 and normalizes; the blocks add incoherently
    because different pair numbers shed different photon counts into the
    traced-out modes. The weighted n-pair block is n(n+1) x^(n-1) times
    (n-1, 2n+1, -(n+2)) on (corner, middle, off), up to a factor common to
    every n, with x = ((1-eta) tanh g)^2. So a point needs two power sums,
    corner = sum n(n+1)(n-1) x^(n-1) and -off = sum n(n+1)(n+2) x^(n-1);
    middle = corner - off, and the trace is 2 * (2 * corner - off).

    The truncation starts at ``SERIES_MIN_TERMS`` terms and doubles until
    the tail bound is at most ``SERIES_TAIL_TOL`` of half the trace, so that
    every entry's tail is at most ``SERIES_TAIL_TOL`` of the trace. The
    series diverges at x = 1, which raises ``ValueError``.
    """
    # x comes from the same math-library calls as singlet_weight: numpy's
    # vectorized tanh can differ in the last bit, which the series raises to
    # powers in the millions.
    x = params.gamma_tilde**2
    if not x < 1.0:
        raise ValueError(f"the pair-number series diverges at x = {x}")
    sums = np.zeros(2)
    summed, n_terms = 0, SERIES_MIN_TERMS
    while True:
        for lo in range(summed + 1, n_terms + 1, _BLOCK):
            n = np.arange(lo, min(lo + _BLOCK, n_terms + 1), dtype=float)
            sums += (n * (n + 1.0) * np.stack((n - 1.0, n + 2.0))) @ np.power(x, n - 1.0)
        corner_sum, minus_off = sums
        if _tail_bound(x, n_terms) <= SERIES_TAIL_TOL * (2.0 * corner_sum + minus_off):
            break
        summed, n_terms = n_terms, 2 * n_terms
    trace = 2.0 * (2.0 * corner_sum + minus_off)
    return PairSeries(n_terms, corner_sum / trace, (corner_sum + minus_off) / trace,
                      -minus_off / trace)


def _tail_bound(x: float, n_last: int) -> float:
    """Upper bound on sum_{n > n_last} n*(n+1)^2*x^(n-1); twice it bounds the
    tail of every entry's coefficients. inf where the bounding ratio is >= 1."""
    ratio = x * (1.0 + 1.0 / n_last) ** 3
    if ratio >= 1.0:
        return math.inf
    return n_last * (n_last + 1.0) ** 2 * x ** (n_last - 1) * ratio / (1.0 - ratio)
