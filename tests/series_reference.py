"""The pair-number series of the post-selected two-photon block, summed
term by term: the reference the tests check the closed form against.

Summing the blocks of ``channel.two_photon_block_closed`` over the pair
numbers, weighted by the emission probabilities, and normalizing gives the
Werner state of ``source.singlet_weight``. The package returns that closed
form; this module sums the blocks themselves, truncated at an analytic tail
bound, over whole grids of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spdc_werner.errors import ConvergenceError
from spdc_werner.source import GainChannelParams

SERIES_MIN_TERMS = 50
SERIES_TAIL_TOL = 1e-12
_SERIES_HARD_CAP = 5_000_000
# Terms per temporary array in the series sums; bounds their memory at any
# truncation.
_SERIES_CHUNK = 1 << 18


@dataclass(frozen=True)
class PairSeries:
    """Pair-number series of the post-selected block at an array of points.

    Per point: the number of terms summed, the relative tail bound at that
    truncation, and the trace-normalized block entries (corner, middle, off)
    laid out as in ``channel.two_photon_block_closed``. The entries are NaN
    where the tail bound exceeds ``SERIES_TAIL_TOL``.
    """

    n_terms: np.ndarray
    relative_tail_bound: np.ndarray
    corner: np.ndarray
    middle: np.ndarray
    off: np.ndarray

    @property
    def p(self) -> np.ndarray:
        """Singlet weight r22 + r33 - r11 - r44 of each summed block."""
        return self.middle + self.middle - self.corner - self.corner

    def error(self, i: int) -> ConvergenceError | None:
        """The ``ConvergenceError`` of point i, or None if it converged."""
        tail = float(self.relative_tail_bound[i])
        if tail <= SERIES_TAIL_TOL:
            return None
        n_terms = int(self.n_terms[i])
        return ConvergenceError(
            f"series check truncated at {n_terms} terms; relative tail bound "
            f"{tail:.3e} exceeds tolerance {SERIES_TAIL_TOL:.1e}",
            diagnostics={"n_terms": n_terms, "relative_tail_bound": tail},
        )


def pair_number_series(points: Sequence[GainChannelParams]) -> PairSeries:
    """Sum the pair-number series of the two-photon block at each of points.

    Weighs each block of ``channel.two_photon_block_closed`` by (n+1) *
    tanh(g)^(2n) / cosh(g)^4 and normalizes; the blocks add incoherently
    because different pair numbers shed different photon counts into the
    traced-out modes. The weighted n-pair block is n(n+1) x^(n-1) times
    (n-1, 2n+1, -(n+2)) on (corner, middle, off), up to a factor common to
    every n, with x = ((1-eta) tanh g)^2. So each point needs two power
    sums, corner = sum n(n+1)(n-1) x^(n-1) and -off = sum n(n+1)(n+2)
    x^(n-1); middle = corner - off, and the trace is 2 * (2 * corner - off).

    Each point's truncation starts at ``SERIES_MIN_TERMS`` terms and
    doubles, up to exactly ``_SERIES_HARD_CAP``, until the analytic tail
    bound drops below ``SERIES_TAIL_TOL`` relative to the accumulated
    trace. Points that end above the tolerance are reported by
    :meth:`PairSeries.error`, not raised, so one call serves a whole grid.
    Each point is a :class:`GainChannelParams`: g > 0 and 0 < eta < 1.
    """
    # x comes from the same math-library calls as singlet_weight: numpy's
    # vectorized tanh can differ in the last bit, which the series raises to
    # powers in the thousands.
    x = np.array([p.gamma_tilde**2 for p in points], dtype=float)

    # The bound at the cap relative to the whole trace series,
    # 6(1+2x)/(1-x)^4: every partial sum is smaller, so a point above the
    # tolerance here fails at any truncation and is reported unsummed.
    n_terms = np.full(x.size, _SERIES_HARD_CAP, dtype=np.int64)
    tail = _series_tail_bound(x, _SERIES_HARD_CAP)
    finite = np.isfinite(tail)
    tail[finite] *= (1.0 - x[finite]) ** 4 / (6.0 * (1.0 + 2.0 * x[finite]))

    sums = np.zeros((2, x.size))
    pending = np.flatnonzero(tail <= SERIES_TAIL_TOL)
    summed, n = 0, SERIES_MIN_TERMS
    while pending.size:
        _add_terms(sums, x, pending, summed, n)
        n_terms[pending] = n
        trace = 2.0 * sums[0, pending] + sums[1, pending]
        tail[pending] = _series_tail_bound(x[pending], n) / trace
        if n == _SERIES_HARD_CAP:
            break
        pending = pending[tail[pending] > SERIES_TAIL_TOL]
        summed, n = n, min(2 * n, _SERIES_HARD_CAP)

    corner, middle, off = (np.full(x.size, math.nan) for _ in range(3))
    converged = tail <= SERIES_TAIL_TOL
    corner_sum, minus_off = sums[:, converged]
    trace = 2.0 * (2.0 * corner_sum + minus_off)
    corner[converged] = corner_sum / trace
    middle[converged] = (corner_sum + minus_off) / trace
    off[converged] = -minus_off / trace
    return PairSeries(n_terms, tail, corner, middle, off)


def _add_terms(sums: np.ndarray, x: np.ndarray, rows: np.ndarray,
               summed: int, n_terms: int) -> None:
    """Add terms summed+1..n_terms of the two power sums at the given rows,
    in pieces of about ``_SERIES_CHUNK`` terms that split every row along n
    at the same places."""
    for lo in range(summed + 1, n_terms + 1, _SERIES_CHUNK):
        n = np.arange(lo, min(lo + _SERIES_CHUNK, n_terms + 1), dtype=float)
        coefficients = n * (n + 1.0) * np.stack((n - 1.0, n + 2.0))
        step = _SERIES_CHUNK // n.size
        for start in range(0, rows.size, step):
            part = rows[start:start + step]
            powers = np.power(x[part, None], n - 1.0)
            # stacked (1, n) @ (n, 1) products: one BLAS dot per row and sum,
            # so a row's sums do not depend on the other rows of the grid
            dots = powers[:, None, None, :] @ coefficients[:, :, None]
            sums[:, part] += dots[:, :, 0, 0].T


def _series_tail_bound(x: np.ndarray, n_last: int) -> np.ndarray:
    """Upper bound on sum_{n > n_last} n*(n+1)^2*x^(n-1), covering every
    entry coefficient of the block series. inf where the bounding ratio is >= 1."""
    ratio = x * (1.0 + 1.0 / n_last) ** 3
    bound = np.full(x.shape, math.inf)
    ok = ratio < 1.0
    a_last = n_last * (n_last + 1.0) ** 2 * x[ok] ** (n_last - 1)
    bound[ok] = a_last * ratio[ok] / (1.0 - ratio[ok])
    return bound
