"""Entanglement metrics of a two-qubit matrix; those of a Werner weight are in source.

All spectral work (Wootters concurrence, state fidelity, partial-transpose
test) goes through one primitive: eigendecomposition of Hermitian 4x4
matrices on (HH, HV, VH, VV), with matrix square roots formed spectrally
after zeroing negative eigenvalues within the physicality tolerance,
``fock.has_negative_eigenvalue``: -1e-10, relative to the matrix's norm
above norm 1.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import PhysicalityError
from .fock import DensityMatrix, has_negative_eigenvalue
from .source import WernerDescriptor

# Single-photon polarization kets. D/F are the +/- diagonal states, L/R the
# circular ones.
POLARIZATION_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "F": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}


def _pair_projector(a: str, b: str) -> np.ndarray:
    ket = np.kron(POLARIZATION_KETS[a], POLARIZATION_KETS[b])
    projector = np.outer(ket, ket.conj())
    projector.setflags(write=False)
    return projector


# |ab><ab| for every pair of letters, keyed by "ab": the measurement model
# shared by the witness and by tomography.
PAIR_PROJECTORS = {
    a + b: _pair_projector(a, b)
    for a, b in itertools.product(POLARIZATION_KETS, repeat=2)
}

# Signed settings of the witness: W = (1/2) sum_s sign_s |s><s|.
WITNESS_SIGNS = {"HH": 1, "VV": 1, "DD": 1, "FF": 1, "LR": -1, "RL": -1}

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def singlet_ket() -> np.ndarray:
    """(|HV> - |VH>)/sqrt(2) as a length-4 vector on (HH, HV, VH, VV)."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def werner_state(p: float) -> DensityMatrix:
    """Werner mixture p*|singlet><singlet| + (1-p)/4 * identity.

    Physical for p in [-1/3, 1]; entangled exactly when p > 1/3.
    """
    WernerDescriptor(p)  # the range check
    psi = singlet_ket()
    m = p * np.outer(psi, psi.conj()) + (1.0 - p) / 4.0 * np.eye(4)
    return DensityMatrix(m)


def _clipped_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with small negative eigenvalues zeroed.

    Violations beyond the physicality tolerance (``has_negative_eigenvalue``)
    raise instead of being clipped away.
    """
    vals, vecs = np.linalg.eigh(m)
    if has_negative_eigenvalue(vals):
        raise PhysicalityError(f"negative eigenvalue {vals[0]:.3e}")
    return np.clip(vals, 0.0, None), vecs


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = _clipped_eigh(m)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def singlet_weight_extract(rho: DensityMatrix) -> float:
    """Werner weight read off the matrix elements: r22 + r33 - r11 - r44.

    Requires a normalized matrix. The diagonal's imaginary parts are
    dropped: ``DensityMatrix``'s Hermiticity check bounds them by 5e-13.
    """
    d = np.diag(rho.entries)
    return float((d[1] + d[2] - d[0] - d[3]).real)


def concurrence_tangle(rho: DensityMatrix) -> tuple[float, float]:
    """Wootters concurrence and tangle of a physical two-qubit state.

    The spin-flipped matrix is rho_tilde = (sy x sy) rho* (sy x sy); with
    lambda_i the decreasing square roots of the eigenvalues of
    rho * rho_tilde,

        C = max(0, l1 - l2 - l3 - l4),  tangle = C^2.

    Computed Hermitianly as the eigenvalues of sqrt(rho) rho_tilde sqrt(rho).
    """
    return _concurrence_tangle(rho.entries, _sqrtm_psd(rho.entries))


def _concurrence_tangle(m: np.ndarray, sqrt_rho: np.ndarray) -> tuple[float, float]:
    """``concurrence_tangle`` of the matrix m, given its square root."""
    rho_tilde = _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    inner = sqrt_rho @ rho_tilde @ sqrt_rho
    vals, _ = _clipped_eigh(0.5 * (inner + inner.conj().T))
    lams = np.sqrt(vals)[::-1]
    c = max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))
    return c, c * c


def linear_entropy(rho: DensityMatrix) -> float:
    """Mixedness measure d/(d-1) * (1 - Tr(rho^2)): (4/3)(1 - Tr rho^2) here.

    0 on pure states, 1 on the maximally mixed state.
    """
    purity = float(np.trace(rho.entries @ rho.entries).real)
    d = rho.dim
    return d / (d - 1.0) * (1.0 - purity)


def tangle_from_entropy_werner(s: float) -> float:
    """Tangle of a Werner state with linear entropy s.

    (1/4) * (1 - 3*sqrt(1-s))^2 for 0 <= s <= 8/9, and 0 on [8/9, 1];
    continuous at the joint.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"linear entropy must lie in [0, 1], got {s}")
    if s >= 8.0 / 9.0:
        return 0.0
    return 0.25 * (1.0 - 3.0 * math.sqrt(1.0 - s)) ** 2


def witness_operator() -> np.ndarray:
    """Entanglement witness for the Werner family.

    (1/2) * (|HH><HH| + |VV><VV| + |DD><DD| + |FF><FF| - |LR><LR| - |RL><RL|);
    exactly Hermitian, with non-negative expectation on every separable state
    and expectation (1 - 3p)/4 on the Werner state of weight p. A fresh copy
    on every call.
    """
    return _witness().copy()


@functools.cache
def _witness() -> np.ndarray:
    """The read-only witness operator, built on first use."""
    witness = sum(sign * PAIR_PROJECTORS[lab] for lab, sign in WITNESS_SIGNS.items()) / 2.0
    witness.setflags(write=False)
    return witness


def witness_expectation(rho: DensityMatrix) -> float:
    """Tr[witness * rho]; negative only on entangled states."""
    return float(np.trace(_witness() @ rho.entries).real)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """State fidelity Tr^2 sqrt(sqrt(rho) sigma sqrt(rho)).

    Symmetric, in [0, 1], and 1 exactly at equality.
    """
    return _fidelity(_sqrtm_psd(rho.entries), sigma)


def _fidelity(sqrt_rho: np.ndarray, sigma: DensityMatrix) -> float:
    """``fidelity`` given sqrt(rho)."""
    inner = sqrt_rho @ sigma.entries @ sqrt_rho
    vals, _ = _clipped_eigh(0.5 * (inner + inner.conj().T))
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(1.0, max(0.0, f))


def is_entangled_ppt(rho: DensityMatrix) -> bool:
    """Partial-transpose test; exact for two qubits.

    True when the partial transpose over the second qubit has an eigenvalue
    negative beyond rounding (``has_negative_eigenvalue``): below -1e-10, or
    -1e-10 times its norm where that exceeds 1.
    """
    m = rho.entries.reshape(2, 2, 2, 2)
    pt = m.transpose(0, 3, 2, 1).reshape(4, 4)
    vals = np.linalg.eigvalsh(pt)
    return has_negative_eigenvalue(vals)


def metrics_report(rho: DensityMatrix, reference: DensityMatrix | None = None) -> dict:
    """Scalar metrics of a normalized two-photon state, JSON-ready.

    When ``reference`` is given the report includes the fidelity against it.
    The concurrence and the fidelity share one sqrt(rho).
    """
    sqrt_rho = _sqrtm_psd(rho.entries)
    c, tau = _concurrence_tangle(rho.entries, sqrt_rho)
    report = {
        "p": singlet_weight_extract(rho),
        "concurrence": c,
        "tangle": tau,
        "linear_entropy": linear_entropy(rho),
        "witness": witness_expectation(rho),
        "ppt_entangled": is_entangled_ppt(rho),
    }
    if reference is not None:
        report["fidelity_vs_theory"] = _fidelity(sqrt_rho, reference)
    return report
