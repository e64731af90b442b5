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
a Werner state, whose singlet weight ``source.singlet_weight`` defines:
the series' two power sums have closed forms, which leave the normalized
block (x, 1 + x, -1) / (2 + 4x) on (corner, middle, off), with
x = ((1-eta) tanh g)^2. :func:`two_photon_state` returns that closed form;
the tests sum the series term by term as its check.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping

import numpy as np

from .errors import CapacityError
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
    returned here in closed form at every gain and transmittivity.
    """
    return werner_state(singlet_weight(params))
