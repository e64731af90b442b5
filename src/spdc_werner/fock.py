"""Fock-space primitives: occupation-number states and density matrices.

A state is a plain dict from occupation tuple (one photon count per mode
slot) to complex amplitude; absent tuples have amplitude zero. Density
matrices are dense complex arrays over a basis of labels: polarization
strings for two-photon matrices, the occupation tuples themselves for
Fock-space matrices. A pure state's reduced density matrix on some of its
slots comes straight from its amplitudes, without the projector over all
of them. Matrices are immutable after construction and validated eagerly:
one that is not Hermitian or not positive semidefinite (beyond tolerance)
raises instead of propagating silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import PhysicalityError

HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10

# Polarization-qubit basis order for all 4x4 two-photon matrices.
TWO_PHOTON_BASIS = ("HH", "HV", "VH", "VV")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive-semidefinite matrix with labeled basis.

    ``entries[i, j]`` is the matrix element between basis vectors ``basis[i]``
    and ``basis[j]``; the labels are polarization strings (``"HV"``) for
    two-photon matrices and occupation tuples for Fock-space matrices. The
    trace is not forced to 1 (post-selected blocks are kept unnormalized;
    their trace is the selection probability).

    Construction validates Hermiticity (tolerance 1e-12) and, unless
    ``check_positive=False``, that the smallest eigenvalue is >= -1e-10.
    The positivity escape hatch exists for linear tomographic inversion,
    which can legitimately return indefinite matrices under shot noise.
    """

    basis: tuple
    entries: np.ndarray = field(repr=False)
    check_positive: bool = True

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be square, got shape {m.shape}")
        if m.shape[0] != len(self.basis):
            raise ValueError(
                f"{len(self.basis)} basis labels for a {m.shape[0]}-dim matrix"
            )
        herm_dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if herm_dev > HERMITICITY_TOL:
            raise PhysicalityError(f"matrix not Hermitian: max deviation {herm_dev:.3e}")
        if abs(m.trace().imag) > HERMITICITY_TOL:
            raise PhysicalityError(f"trace has imaginary part {m.trace().imag:.3e}")
        if self.check_positive and m.size:
            min_eig = float(np.linalg.eigvalsh(m)[0])
            if min_eig < -EIGENVALUE_TOL:
                raise PhysicalityError(f"negative eigenvalue {min_eig:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def trace(self) -> float:
        return float(self.entries.trace().real)

    def normalized(self) -> "DensityMatrix":
        """Scale entries uniformly to unit trace.

        Raises ``ValueError`` on zero or negative trace.
        """
        t = self.trace
        if t <= 0.0:
            raise ValueError(f"cannot normalize matrix with trace {t:.3e}")
        return DensityMatrix(self.basis, self.entries / t,
                             check_positive=self.check_positive)

    def to_dict(self) -> dict:
        """JSON-ready form: {"dim", "basis", "re", "im"}, row-major."""
        return {
            "dim": self.dim,
            "basis": list(self.basis),
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DensityMatrix":
        m = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
        dm = cls(tuple(data["basis"]), m)
        if dm.dim != int(data["dim"]):
            raise ValueError("dim field inconsistent with matrix shape")
        return dm


def outer_product(state: Mapping[tuple[int, ...], complex]) -> DensityMatrix:
    """|s><s| over the lexicographically sorted occupation tuples of ``state``.

    The result's trace equals the squared norm of the state, so unnormalized
    inputs give unnormalized projectors. No package route calls it: the tests
    use it as the reference for :func:`partial_trace`, and the benchmark
    still times it as a layer.
    """
    occs = sorted(state)
    vec = np.array([state[o] for o in occs], dtype=complex)
    return DensityMatrix(tuple(occs), np.outer(vec, vec.conj()))


def partial_trace(state: Mapping[tuple[int, ...], complex],
                  keep: Iterable[int]) -> DensityMatrix:
    """Reduced state of ``state`` on the mode slots listed in ``keep``.

    ``keep`` holds slot indices into the state's occupation tuples. The
    result is the sum of psi_r psi_r^H over the traced-out occupations r in
    sorted order, where psi_r holds the amplitudes whose traced-out part is
    r, placed at their kept parts; the basis is the sorted kept occupations
    and the trace is the state's squared norm. Each element gets at most one
    term per r, so this adds the terms of tracing the full projector
    ``outer_product(state)`` in that projector's row order, without forming
    it. No package route calls it: the tests trace the beam-splitter
    expansion with it as the reference for the coincidence block of
    ``channel.transmitted_reduced_state``.
    """
    if not state:
        raise ValueError("cannot trace an empty state")
    n_slots = len(next(iter(state)))
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate indices in keep")
    if any(k < 0 or k >= n_slots for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n_slots} slots")
    traced = tuple(i for i in range(n_slots) if i not in keep)

    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], complex]]] = {}
    for occ, amp in state.items():
        kept_part = tuple(occ[k] for k in keep)
        groups.setdefault(tuple(occ[t] for t in traced), []).append((kept_part, amp))
    out_occs = sorted({kept for group in groups.values() for kept, _ in group})
    index = {o: i for i, o in enumerate(out_occs)}
    out = np.zeros((len(out_occs), len(out_occs)), dtype=complex)
    for _, group in sorted(groups.items()):
        rows = [index[kept] for kept, _ in group]
        psi = np.array([amp for _, amp in group])
        out[np.ix_(rows, rows)] += np.outer(psi, psi.conj())
    return DensityMatrix(tuple(out_occs), out)
