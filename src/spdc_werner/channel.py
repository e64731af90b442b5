"""Symmetric-loss channel: beam-splitter propagation and coincidence blocks.

Losses on both spatial modes are modeled by beam splitters of transmittivity
eta coupling each source mode to an undetected reflected mode. Two
independent routes produce the post-selected two-photon polarization matrix
of the n-pair term:

* brute force: split each of the state's occupation tuples into the
  transmitted part on the four coincidence occupations (one photon per
  spatial mode) and the reflected rest, and trace the reflected modes out
  of those eight-slot beam-splitter amplitudes with ``fock.partial_trace``,
  giving an ``(occupations, matrix)`` pair that
  :func:`post_select_two_photon` turns into a ``DensityMatrix``;
* closed form: the 4x4 block written directly in terms of n and eta.

The two agree exactly (not approximately): loss only redistributes weight
between photon-number blocks, and coincidence post-selection picks out one
block whose elements the closed form reproduces verbatim. Tests exploit this
as a machine-precision oracle, and check the brute-force block against the
full expansion of :func:`apply_beamsplitters` over all eight slots.

Summing the blocks over the pair-number distribution and normalizing yields
a Werner state, whose singlet weight ``source.singlet_weight`` defines.
:func:`two_photon_state` returns that closed form; :func:`pair_number_series`
sums the blocks themselves, over whole grids of points, as its check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, ConvergenceError
from .fock import DensityMatrix, partial_trace
from .metrics import werner_state
from .source import (
    GainChannelParams,
    n_pair_singlet,
    require_open_channel,
    singlet_weight,
)

# The brute-force block costs O(n) in n: n = 1500 takes 0.09-0.10 s (best and
# median of 7 calls) on a 2-core x86-64 host with Python 3.11 and numpy 2.4.
# Beyond the cap the closed form is the only supported route.
BRUTE_FORCE_MAX_PAIRS = 1500

SERIES_MIN_TERMS = 50
SERIES_TAIL_TOL = 1e-12
_SERIES_HARD_CAP = 5_000_000
# Terms per temporary array in the series sums; bounds their memory at any
# truncation.
_SERIES_CHUNK = 1 << 18

# Occupations (1H, 1V, 2H, 2V) with one photon per spatial mode, in the
# polarization order HH, HV, VH, VV.
COINCIDENCE_OCCUPATIONS = (
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
)


def _split_amplitude(amp: complex, occ: tuple[int, ...], ys: tuple[int, ...],
                     eta: float) -> complex:
    """amp times the amplitude of ys[i] of the occ[i] photons of each mode
    being transmitted and the rest reflected, multiplied in mode order."""
    t_amp = math.sqrt(eta)
    r_amp = 1j * math.sqrt(1.0 - eta)
    for n_i, y in zip(occ, ys):
        amp *= math.sqrt(math.comb(n_i, y)) * t_amp**y * r_amp ** (n_i - y)
    return amp


def apply_beamsplitters(state: Mapping[tuple[int, ...], complex],
                        eta: float) -> dict[tuple[int, ...], complex]:
    """Propagate a four-mode state through one loss beam splitter per mode.

    Each creation operator splits into sqrt(eta) times the transmitted
    operator plus i*sqrt(1-eta) times the reflected one, so a single-mode
    Fock state |n> becomes

        sum_y sqrt(C(n, y)) * eta^(y/2) * (i sqrt(1-eta))^(n-y) |y>_T |n-y>_R.

    The input's occupation tuples must be four non-negative photon counts,
    on (1H, 1V, 2H, 2V). The output's tuples have eight slots (the four
    transmitted ones followed by the four reflected ones); it stays
    normalized and conserves the total photon number term by term. The
    tests trace it out as the reference for :func:`transmitted_reduced_state`.
    """
    require_open_channel(eta)
    for occ in state:
        if len(occ) != 4 or any(n_i < 0 for n_i in occ):
            raise ValueError(f"expected four non-negative photon counts, got {occ}")
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.items():
        for ys in itertools.product(*(range(n_i + 1) for n_i in occ)):
            key = ys + tuple(n_i - y for n_i, y in zip(occ, ys))
            out[key] = out.get(key, 0.0 + 0.0j) + _split_amplitude(amp, occ, ys, eta)
    return out


def transmitted_reduced_state(n: int, eta: float) -> tuple[tuple, np.ndarray]:
    """Exact reduced state of the n-pair term on the transmitted modes,
    restricted to the coincidence occupations.

    Returns an ``(occupations, matrix)`` pair over the coincidence
    occupations the term reaches, sorted (the empty pair at n = 0, which
    reaches none), which :func:`post_select_two_photon` places in the 4x4
    block. Brute-force route: each of the term's occupations sends each
    coincidence occupation t to the transmitted modes and the rest to the
    reflected ones, with the amplitude :func:`apply_beamsplitters` gives
    it, and ``fock.partial_trace`` traces the reflected modes out. So the
    block is bitwise that of the full eight-slot expansion, in O(n) work.
    Supported for n <= ``BRUTE_FORCE_MAX_PAIRS``.
    """
    if n > BRUTE_FORCE_MAX_PAIRS:
        raise CapacityError(
            f"n={n} exceeds brute-force capacity {BRUTE_FORCE_MAX_PAIRS}"
        )
    term = n_pair_singlet(n)  # raises on n < 0
    require_open_channel(eta)
    landing: dict[tuple[int, ...], complex] = {}
    for occ, amp in term.items():
        for t in COINCIDENCE_OCCUPATIONS:
            reflected = tuple(n_i - y for n_i, y in zip(occ, t))
            if min(reflected) >= 0:
                landing[t + reflected] = _split_amplitude(amp, occ, t, eta)
    return partial_trace(landing)


def post_select_two_photon(reduced: tuple[tuple, np.ndarray]) -> DensityMatrix:
    """Restrict to the one-photon-per-spatial-mode coincidence block.

    Input is an ``(occupations, matrix)`` pair over the four transmitted
    modes, as :func:`transmitted_reduced_state` and ``fock.partial_trace``
    return, in any occupation order; coincidence occupations it lacks,
    all four for the empty pair, get zero rows and columns. The
    output is the validated 4x4 block on (HH, HV, VH, VV), left
    unnormalized so its trace is the coincidence post-selection probability.
    """
    occupations, matrix = reduced
    slots = [k for k, occ in enumerate(COINCIDENCE_OCCUPATIONS) if occ in occupations]
    rows = [occupations.index(COINCIDENCE_OCCUPATIONS[k]) for k in slots]
    block = np.zeros((4, 4), dtype=complex)
    block[np.ix_(slots, slots)] = matrix[np.ix_(rows, rows)]
    return DensityMatrix(block)


def two_photon_block_closed(n: int, eta: float) -> DensityMatrix:
    """Closed form of the post-selected two-photon block of the n-pair term.

    Unnormalized; the trace is n^2 * (1-eta)^(2n) * zeta^2. For n = 0 there
    is no two-photon coincidence and the prefactor n makes the block zero. The
    diagonal corners carry a factor (n-1), so the single-pair block is a pure
    singlet and the normalized block for n pairs is a Werner state with
    singlet weight (n+2)/(3n).
    """
    if n < 0:
        raise ValueError(f"pair number must be non-negative, got {n}")
    require_open_channel(eta)
    # prefactor n * (1-eta)^(2n) * zeta^2 / 6 on the integer pattern
    # (n-1, 1+2n, -(n+2)) of (corner, middle, off)
    zeta = eta / (1.0 - eta)
    pref = n * (1.0 - eta) ** (2.0 * n) * zeta**2 / 6.0
    corner, middle, off = pref * (n - 1.0), pref * (1.0 + 2.0 * n), pref * -(n + 2.0)
    return DensityMatrix(np.array([[corner, 0.0, 0.0, 0.0],
                                   [0.0, middle, off, 0.0],
                                   [0.0, off, middle, 0.0],
                                   [0.0, 0.0, 0.0, corner]], dtype=complex))


def two_photon_state(params: GainChannelParams) -> DensityMatrix:
    """Post-selected two-photon state at gain g, summed over pair numbers.

    Weighing each pair-number block by (n+1) * tanh(g)^(2n) / cosh(g)^4 and
    normalizing gives the Werner state of weight ``source.singlet_weight``,
    returned here in closed form at every gain and transmittivity;
    :func:`pair_number_series` sums the blocks themselves as the check.
    """
    return werner_state(singlet_weight(params))


@dataclass(frozen=True)
class PairSeries:
    """Pair-number series of the post-selected block at an array of points.

    Per point: the number of terms summed, the relative tail bound at that
    truncation, and the trace-normalized block entries (corner, middle, off)
    laid out as in :func:`two_photon_block_closed`. The entries are NaN
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

    Weighs each block of :func:`two_photon_block_closed` by (n+1) *
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
