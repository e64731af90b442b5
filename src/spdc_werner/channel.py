"""Symmetric-loss channel: beam-splitter propagation and coincidence blocks.

Losses on both spatial modes are modeled by beam splitters of transmittivity
eta coupling each source mode to an undetected reflected mode. Two
independent routes produce the post-selected two-photon polarization matrix
of the n-pair term:

* brute force: expand the state over transmitted + reflected Fock modes,
  trace the reflected modes out of the expanded amplitudes, restrict to
  the one-photon-per-spatial-mode block;
* closed form: the 4x4 block written directly in terms of n and eta.

The two agree exactly (not approximately): loss only redistributes weight
between photon-number blocks, and coincidence post-selection picks out one
block whose elements the closed form reproduces verbatim. Tests exploit this
as a machine-precision oracle.

Summing the blocks over the pair-number distribution and normalizing yields
a Werner state whose singlet weight is 1 / (2*((1-eta)*tanh g)^2 + 1).
:func:`two_photon_state` returns that closed form; :func:`pair_number_series`
sums the blocks themselves, over whole grids of points, as its check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError
from .fock import (
    ALL_MODES,
    TWO_PHOTON_BASIS,
    DensityMatrix,
    PureState,
    occupation_label,
    partial_trace,
)
from .metrics import werner_state
from .source import GainChannelParams, n_pair_singlet

# Brute-force cost grows with the expansion size; four pairs
# (259 basis tuples) is already instant, beyond that the closed form is the
# only supported route.
BRUTE_FORCE_MAX_PAIRS = 4

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


def _require_open_channel(eta: float) -> None:
    if not 0.0 < eta < 1.0:
        raise ValueError(f"transmittivity must lie strictly in (0, 1), got {eta}")


def apply_beamsplitters(state: PureState, eta: float) -> PureState:
    """Propagate a four-mode state through one loss beam splitter per mode.

    Each creation operator splits into sqrt(eta) times the transmitted
    operator plus i*sqrt(1-eta) times the reflected one, so a single-mode
    Fock state |n> becomes

        sum_y sqrt(C(n, y)) * eta^(y/2) * (i sqrt(1-eta))^(n-y) |y>_T |n-y>_R.

    The output lives on the eight-mode set (four transmitted slots followed
    by four reflected slots), stays normalized, and conserves the total
    photon number term by term.
    """
    _require_open_channel(eta)
    if state.modes != ALL_MODES[:4]:
        raise ValueError("expected a state over the four transmitted modes")
    t_amp = math.sqrt(eta)
    r_amp = 1j * math.sqrt(1.0 - eta)

    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.amplitudes.items():
        per_mode = [
            [
                (y, math.sqrt(math.comb(n_i, y)) * t_amp**y * r_amp ** (n_i - y))
                for y in range(n_i + 1)
            ]
            for n_i in occ
        ]
        for combo in itertools.product(*per_mode):
            transmitted = tuple(c[0] for c in combo)
            coeff = amp
            for c in combo:
                coeff *= c[1]
            reflected = tuple(n_i - y for n_i, y in zip(occ, transmitted))
            key = transmitted + reflected
            out[key] = out.get(key, 0.0 + 0.0j) + coeff
    return PureState(ALL_MODES, out)


def transmitted_reduced_state(n: int, eta: float) -> DensityMatrix:
    """Exact reduced state of the n-pair term on the transmitted modes.

    Brute-force route: beam-splitter expansion, then the partial trace of
    the expanded pure state over the reflected modes; no matrix over all
    eight modes is formed. Trace 1. Supported for n <= 4.
    """
    if n < 0:
        raise ValueError(f"pair number must be non-negative, got {n}")
    if n > BRUTE_FORCE_MAX_PAIRS:
        raise CapacityError(
            f"n={n} exceeds brute-force capacity {BRUTE_FORCE_MAX_PAIRS}"
        )
    _require_open_channel(eta)
    return partial_trace(apply_beamsplitters(n_pair_singlet(n), eta), keep=range(4))


def post_select_two_photon(rho: DensityMatrix) -> DensityMatrix:
    """Restrict to the one-photon-per-spatial-mode coincidence block.

    Input is a density matrix over the four transmitted Fock modes; the
    output is the 4x4 block on (HH, HV, VH, VV), left unnormalized so its
    trace is the coincidence post-selection probability.
    """
    labels = {occupation_label(o): k for k, o in enumerate(COINCIDENCE_OCCUPATIONS)}
    block = np.zeros((4, 4), dtype=complex)
    present = {lab: i for i, lab in enumerate(rho.basis) if lab in labels}
    for lab_i, i in present.items():
        for lab_j, j in present.items():
            block[labels[lab_i], labels[lab_j]] = rho.entries[i, j]
    return DensityMatrix(TWO_PHOTON_BASIS, block, check_positive=rho.check_positive)


def _assemble_block(corner, middle, off) -> np.ndarray:
    """The 4x4 block [[c, 0, 0, 0], [0, m, o, 0], [0, o, m, 0], [0, 0, 0, c]]
    on (HH, HV, VH, VV)."""
    return np.array(
        [
            [corner, 0.0, 0.0, 0.0],
            [0.0, middle, off, 0.0],
            [0.0, off, middle, 0.0],
            [0.0, 0.0, 0.0, corner],
        ],
        dtype=complex,
    )


def two_photon_block_closed(n: int, eta: float) -> DensityMatrix:
    """Closed form of the post-selected two-photon block of the n-pair term.

    Unnormalized; the trace is n^2 * (1-eta)^(2n) * zeta^2. For n = 0 there
    is no two-photon coincidence and the block is identically zero. The
    diagonal corners carry a factor (n-1), so the single-pair block is a pure
    singlet and the normalized block for n pairs is a Werner state with
    singlet weight (n+2)/(3n).
    """
    if n < 0:
        raise ValueError(f"pair number must be non-negative, got {n}")
    _require_open_channel(eta)
    if n == 0:
        return DensityMatrix(TWO_PHOTON_BASIS, np.zeros((4, 4)))
    # prefactor n * (1-eta)^(2n) * zeta^2 / 6 on the integer pattern
    # (n-1, 1+2n, -(n+2)) of (corner, middle, off)
    zeta = eta / (1.0 - eta)
    pref = n * (1.0 - eta) ** (2.0 * n) * zeta**2 / 6.0
    block = _assemble_block(
        pref * (n - 1.0), pref * (1.0 + 2.0 * n), pref * -(n + 2.0)
    )
    return DensityMatrix(TWO_PHOTON_BASIS, block)


def singlet_weight(params: GainChannelParams) -> float:
    """Singlet weight of the gain-summed two-photon Werner state.

    p = 1 / (2*((1-eta)*tanh g)^2 + 1), always in (1/3, 1]. The eta -> 0
    limit is taken directly (the formula only involves (1-eta)*tanh g).
    """
    return 1.0 / (2.0 * params.gamma_tilde**2 + 1.0)


def require_two_photon_params(params: GainChannelParams) -> None:
    """Raise ``ValueError`` unless the coincidence state is defined at params:
    an open channel, 0 < eta < 1, and pairs emitted, g > 0."""
    _require_open_channel(params.eta)
    if params.g == 0.0:
        raise ValueError("no pairs are emitted at g = 0; coincidence state undefined")


def two_photon_state(params: GainChannelParams) -> DensityMatrix:
    """Post-selected two-photon state at gain g, summed over pair numbers.

    Weighing each pair-number block by (n+1) * tanh(g)^(2n) / cosh(g)^4 and
    normalizing gives, in closed form, the Werner state with singlet weight
    :func:`singlet_weight`; that is what this returns, at every gain and
    transmittivity. :func:`pair_number_series` sums the blocks themselves
    and serves as the independent check.
    """
    require_two_photon_params(params)
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


def pair_number_series(g, eta) -> PairSeries:
    """Sum the pair-number series of the two-photon block over arrays of
    (g, eta) points.

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
    Every point must pass :func:`require_two_photon_params`.
    """
    points = [GainChannelParams(g=a, eta=b) for a, b in zip(g, eta, strict=True)]
    for params in points:
        require_two_photon_params(params)
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


def pair_number_series_state(params: GainChannelParams) -> DensityMatrix:
    """:func:`pair_number_series` at one point, as a density matrix.

    Raises the point's ``ConvergenceError`` when the tail bound at the
    truncation exceeds ``SERIES_TAIL_TOL``.
    """
    series = pair_number_series([params.g], [params.eta])
    error = series.error(0)
    if error is not None:
        raise error
    block = _assemble_block(series.corner[0], series.middle[0], series.off[0])
    return DensityMatrix(TWO_PHOTON_BASIS, block)


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


def _binom(a: int, k: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= k <= a."""
    if a < 0 or k < 0 or k > a:
        return 0
    return math.comb(a, k)


@dataclass(frozen=True)
class LossCoefficients:
    """Coefficient tables of the general reduced state of the n-pair term.

    The reduced matrix over the transmitted modes can be written as a double
    sum over integers (h, k) with per-slot factors

        s(h, k, p)       = zeta^p * sqrt(C(k, p) * C(h, k-p))
        s_tilde(h, k, p) = zeta^p * sqrt(C(n-k, p) * C(n-h, k-h+p))

    real and vanishing whenever a binomial argument is out of range. The
    beam-splitter expansion amplitude of the transmitted occupation
    ``ys`` within the x-th singlet-power term is ``a_coefficient(x, ys)``
    (up to the overall 1/(sqrt(n+1) n!)); it carries the phase
    (-1)^x * (-i)^(2n - sum(ys)).
    """

    n: int
    eta: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"pair number must be non-negative, got {self.n}")
        _require_open_channel(self.eta)

    @property
    def zeta(self) -> float:
        return self.eta / (1.0 - self.eta)

    def s(self, h: int, k: int, p: int) -> float:
        return self.zeta**p * math.sqrt(_binom(k, p) * _binom(h, k - p))

    def s_tilde(self, h: int, k: int, p: int) -> float:
        return self.zeta**p * math.sqrt(
            _binom(self.n - k, p) * _binom(self.n - h, k - h + p)
        )

    def a_coefficient(self, x: int, ys: tuple[int, int, int, int]) -> complex:
        """Expansion amplitude of transmitted occupation ``ys`` in term x.

        ys = (y_1H, y_1V, y_2H, y_2V) are the transmitted photon counts out
        of the term's input occupations (n-x, x, x, n-x); the complementary
        photons go to the reflected slots. Each transmitted photon carries
        sqrt(eta), each reflected one -i*sqrt(1-eta).
        """
        n = self.n
        y1, y2, y3, y4 = ys
        caps = (n - x, x, x, n - x)
        combinatorial = _binom(n, x)
        for cap, y in zip(caps, ys):
            combinatorial *= _binom(cap, y)
        if combinatorial == 0:
            return 0.0 + 0.0j
        total_t = y1 + y2 + y3 + y4
        phase = (-1.0) ** x * (-1j * math.sqrt(1.0 - self.eta)) ** (2 * n - total_t)
        root = math.sqrt(
            math.prod(
                math.factorial(y) * math.factorial(cap - y)
                for cap, y in zip(caps, ys)
            )
        )
        return combinatorial * math.sqrt(self.eta) ** total_t * phase * root

    def reduced_state(self) -> DensityMatrix:
        """Assemble the full reduced matrix from the coefficient tables.

        Independent of the beam-splitter expansion route; agrees with
        :func:`transmitted_reduced_state` at machine precision, which the
        tests use as a cross-check on both.
        """
        n = self.n
        entries: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
        for k in range(n + 1):
            for h in range(n + 1):
                sign = (-1.0) ** (k + h) * (1.0 - self.eta) ** (2 * n) / (n + 1)
                for l1 in range(n - k + 1):
                    st1 = self.s_tilde(h, k, l1)
                    if st1 == 0.0:
                        continue
                    for l4 in range(n - k + 1):
                        st4 = self.s_tilde(h, k, l4)
                        if st4 == 0.0:
                            continue
                        for l2 in range(k + 1):
                            s2 = self.s(h, k, l2)
                            if s2 == 0.0:
                                continue
                            for l3 in range(k + 1):
                                s3 = self.s(h, k, l3)
                                if s3 == 0.0:
                                    continue
                                ket = (l1, l2, l3, l4)
                                bra = (k - h + l1, h - k + l2, h - k + l3, k - h + l4)
                                if any(v < 0 for v in bra):
                                    continue
                                val = sign * s2 * s3 * st1 * st4
                                key = (ket, bra)
                                entries[key] = entries.get(key, 0.0) + val
        occs = sorted({occ for pair in entries for occ in pair})
        index = {o: i for i, o in enumerate(occs)}
        m = np.zeros((len(occs), len(occs)), dtype=complex)
        for (ket, bra), val in entries.items():
            m[index[ket], index[bra]] += val
        labels = tuple(occupation_label(o) for o in occs)
        return DensityMatrix(labels, m)
