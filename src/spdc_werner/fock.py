"""Fock-space primitives over labeled optical modes.

States are sparse maps from occupation tuples to complex amplitudes; density
matrices are dense complex arrays with string basis labels. A pure state's
reduced density matrix on some of its modes comes straight from its
amplitudes, without the projector over all of them. Everything is immutable
after construction and validated eagerly: a matrix that is not Hermitian or
not positive semidefinite (beyond tolerance) raises instead of propagating
silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PhysicalityError

HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10

# Mode slot order: two spatial modes x two polarizations, transmitted slots
# first, reflected ("r") slots after them.
TRANSMITTED_MODES = ("1H", "1V", "2H", "2V")
REFLECTED_MODES = ("r1H", "r1V", "r2H", "r2V")
ALL_MODES = TRANSMITTED_MODES + REFLECTED_MODES

# Polarization-qubit basis order for all 4x4 two-photon matrices.
TWO_PHOTON_BASIS = ("HH", "HV", "VH", "VV")


def occupation_label(occupation: Sequence[int]) -> str:
    """Canonical string label for an occupation tuple, e.g. ``"1,0,0,1"``."""
    return ",".join(str(n) for n in occupation)


def _validated_occupations(modes, amplitudes):
    n_modes = len(modes)
    for occ in amplitudes:
        if len(occ) != n_modes:
            raise ValueError(
                f"occupation tuple {occ} has {len(occ)} slots, mode set has {n_modes}"
            )
        if any(n < 0 for n in occ):
            raise ValueError(f"negative photon number in {occ}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Sparse pure state: complex amplitude per occupation tuple.

    Parameters
    ----------
    modes : tuple of str
        Mode slot labels; fixes the tuple length.
    amplitudes : mapping
        Occupation tuple -> complex amplitude. Tuples absent from the map
        have amplitude zero.
    """

    modes: tuple[str, ...]
    amplitudes: Mapping[tuple[int, ...], complex]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        amps = {tuple(occ): complex(a) for occ, a in self.amplitudes.items()}
        _validated_occupations(self.modes, amps)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def amplitude(self, occupation: Sequence[int]) -> complex:
        return self.amplitudes.get(tuple(occupation), 0.0 + 0.0j)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian positive-semidefinite matrix with labeled basis.

    ``entries[i, j]`` is the matrix element between basis vectors ``basis[i]``
    and ``basis[j]``. The trace is not forced to 1 (post-selected blocks are
    kept unnormalized; their trace is the selection probability).

    Construction validates Hermiticity (tolerance 1e-12) and, unless
    ``check_positive=False``, that the smallest eigenvalue is >= -1e-10.
    The positivity escape hatch exists for linear tomographic inversion,
    which can legitimately return indefinite matrices under shot noise.
    """

    basis: tuple[str, ...]
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
    def from_dict(cls, data: dict, check_positive: bool = True) -> "DensityMatrix":
        m = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
        dm = cls(tuple(data["basis"]), m, check_positive=check_positive)
        if dm.dim != int(data["dim"]):
            raise ValueError("dim field inconsistent with matrix shape")
        return dm


def outer_product(state: PureState) -> DensityMatrix:
    """|s><s| over the lexicographically sorted occupation tuples of ``state``.

    The result's trace equals the squared norm of the state, so unnormalized
    inputs give unnormalized projectors. No package route calls it: the tests
    use it as the reference for :func:`partial_trace`, and the benchmark
    still times it as a layer.
    """
    occs = sorted(state.amplitudes)
    vec = np.array([state.amplitudes[o] for o in occs], dtype=complex)
    labels = tuple(occupation_label(o) for o in occs)
    return DensityMatrix(labels, np.outer(vec, vec.conj()))


def partial_trace(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state of ``state`` on the mode slots listed in ``keep``.

    ``keep`` holds mode-slot indices into the state's occupation tuples. The
    result is the sum of psi_r psi_r^H over the traced-out occupations r in
    sorted order, where psi_r holds the amplitudes whose traced-out part is
    r, placed at their kept parts; the basis is the sorted kept occupations
    and the trace is the state's squared norm. Each element gets at most one
    term per r, so this adds the terms of tracing the full projector
    ``outer_product(state)`` in that projector's row order, without forming
    it.
    """
    if not state.amplitudes:
        raise ValueError("cannot trace an empty state")
    n_slots = len(state.modes)
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate indices in keep")
    if any(k < 0 or k >= n_slots for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n_slots} slots")
    traced = tuple(i for i in range(n_slots) if i not in keep)

    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], complex]]] = {}
    for occ, amp in state.amplitudes.items():
        kept_part = tuple(occ[k] for k in keep)
        groups.setdefault(tuple(occ[t] for t in traced), []).append((kept_part, amp))
    out_occs = sorted({kept for group in groups.values() for kept, _ in group})
    index = {o: i for i, o in enumerate(out_occs)}
    out = np.zeros((len(out_occs), len(out_occs)), dtype=complex)
    for _, group in sorted(groups.items()):
        rows = [index[kept] for kept, _ in group]
        psi = np.array([amp for _, amp in group])
        out[np.ix_(rows, rows)] += np.outer(psi, psi.conj())
    labels = tuple(occupation_label(o) for o in out_occs)
    return DensityMatrix(labels, out)
