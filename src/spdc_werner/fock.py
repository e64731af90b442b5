"""Two-photon density matrices, and the Fock-space primitives of the oracle.

A :class:`DensityMatrix` is a physical two-photon polarization state: a
4x4 complex matrix on ``TWO_PHOTON_BASIS``, immutable after construction
and validated eagerly, so one that has a non-finite entry, or is not
Hermitian or not positive semidefinite (beyond tolerance), raises instead
of propagating silently.

A Fock state of the oracle is a plain dict from occupation tuple to complex
amplitude; absent tuples have amplitude zero. Its tuples have eight slots:
the photon counts of the transmitted modes 1H, 1V, 2H, 2V, then of the
same four reflected modes. Its matrices are plain ``(occupations,
matrix)`` pairs: a tuple of occupation tuples and the dense complex matrix
over them, in that order. :func:`partial_trace` gives the reduced matrix
on the transmitted slots straight from the amplitudes, without the
projector over all eight; the brute-force oracle in ``channel`` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping

import numpy as np

from .errors import PhysicalityError

HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10

# Polarization-qubit basis order for all 4x4 two-photon matrices.
TWO_PHOTON_BASIS = ("HH", "HV", "VH", "VV")


def has_negative_eigenvalue(vals: np.ndarray) -> bool:
    """Whether the ascending eigenvalues ``vals`` of a Hermitian matrix
    include one that is negative beyond rounding.

    The bound is -1e-10 times the larger of 1 and the largest |eigenvalue|,
    since eigensolver rounding is relative to the matrix's norm; at norm 1
    or below, which includes every state the package builds, it is -1e-10.
    """
    smallest = float(vals[0])
    # the scaled bound is never above -1e-10, so most spectra stop at the
    # first test; past it, max(-smallest, largest) is the largest |eigenvalue|
    return smallest < -EIGENVALUE_TOL and smallest < -EIGENVALUE_TOL * max(
        1.0, -smallest, float(vals[-1]))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive-semidefinite 4x4 matrix on ``TWO_PHOTON_BASIS``.

    ``entries[i, j]`` is the matrix element between basis vectors
    ``basis[i]`` and ``basis[j]``. The trace is not forced to 1
    (post-selected blocks are kept unnormalized; their trace is the
    selection probability).

    Construction validates the 4x4 shape, that every entry is finite,
    Hermiticity (tolerance 1e-12) and that no eigenvalue is negative
    beyond rounding (:func:`has_negative_eigenvalue`: -1e-10, times the
    largest |eigenvalue| where that exceeds 1).
    """

    basis: ClassVar[tuple[str, ...]] = TWO_PHOTON_BASIS
    dim: ClassVar[int] = len(TWO_PHOTON_BASIS)
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be 4x4, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise PhysicalityError("matrix has non-finite entries")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > HERMITICITY_TOL:
            raise PhysicalityError(f"matrix not Hermitian: max deviation {herm_dev:.3e}")
        if abs(m.trace().imag) > HERMITICITY_TOL:
            raise PhysicalityError(f"trace has imaginary part {m.trace().imag:.3e}")
        vals = np.linalg.eigvalsh(m)
        if has_negative_eigenvalue(vals):
            raise PhysicalityError(f"negative eigenvalue {vals[0]:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def trace(self) -> float:
        return float(self.entries.trace().real)

    def to_dict(self) -> dict:
        """JSON-ready form: {"dim", "basis", "re", "im"}, row-major."""
        return {
            "dim": self.dim,
            "basis": list(self.basis),
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }


def outer_product(state: Mapping[tuple[int, ...], complex]) -> tuple[tuple, np.ndarray]:
    """``(occupations, |s><s|)`` over the lexicographically sorted
    occupation tuples of ``state``.

    The matrix's trace equals the squared norm of the state, so unnormalized
    inputs give unnormalized projectors. No package route calls it: the tests
    use it as the reference for :func:`partial_trace`, and the benchmark
    still times it as a layer.
    """
    occs = tuple(sorted(state))
    vec = np.array([state[o] for o in occs], dtype=complex)
    return occs, np.outer(vec, vec.conj())


def partial_trace(state: Mapping[tuple[int, ...], complex]) -> tuple[tuple, np.ndarray]:
    """``(occupations, matrix)`` of the reduced state of the eight-slot
    ``state`` on its four transmitted slots.

    The matrix is the sum of psi_r psi_r^H over the reflected occupations r
    in sorted order, where psi_r holds the amplitudes whose reflected part
    is r, placed at their transmitted parts; the occupations are the sorted
    transmitted ones and the trace is the state's squared norm, so an empty
    state gives the empty pair. Each element gets at most one term per r,
    so this adds the terms of tracing the full projector
    ``outer_product(state)`` in that projector's row order, without forming
    it. ``channel.transmitted_reduced_state`` traces its coincidence
    amplitudes with it, and the tests trace the full beam-splitter
    expansion with it as that function's reference.
    """
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], complex]]] = {}
    for occ, amp in state.items():
        groups.setdefault(occ[4:], []).append((occ[:4], amp))
    out_occs = tuple(sorted({kept for group in groups.values() for kept, _ in group}))
    index = {o: i for i, o in enumerate(out_occs)}
    out = np.zeros((len(out_occs), len(out_occs)), dtype=complex)
    for _, group in sorted(groups.items()):
        rows = [index[kept] for kept, _ in group]
        psi = np.array([amp for _, amp in group])
        out[np.ix_(rows, rows)] += np.outer(psi, psi.conj())
    return out_occs, out
