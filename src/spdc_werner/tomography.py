"""Coincidence-count simulation and density-matrix reconstruction.

Measurements are polarization projectors |a>|b><a|<b| set independently on
the two spatial modes. Counts are Poisson with mean N * Tr[rho P]; the
total flux N per setting is either supplied or estimated from the complete
basis {HH, HV, VH, VV}, whose outcome probabilities sum to one.

Reconstruction comes in two stages: linear inversion of the Born
probabilities (exact but possibly indefinite under shot noise) and a
maximum-likelihood refinement over the Cholesky-like parameterization
rho = T'T / Tr(T'T) with T complex lower triangular, which is positive
semidefinite by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlogy

from . import _csv
from .errors import ConvergenceError, DesignError
from .fock import TWO_PHOTON_BASIS, DensityMatrix
from .metrics import POLARIZATION_KETS

_KET_TOL = 1e-10
_COMPLETE_BASIS_LABELS = ("HH", "HV", "VH", "VV")
_WITNESS_LABELS = ("HH", "VV", "DD", "FF", "LR", "RL", "HV", "VH")

# Fill order (1,0), (2,0), (2,1), (3,0), (3,1), (3,2) of the (re, im) parameters.
_LOWER_INDICES = np.tril_indices(4, -1)


def _as_ket(state) -> np.ndarray:
    if isinstance(state, str):
        try:
            return POLARIZATION_KETS[state]
        except KeyError:
            raise ValueError(f"unknown polarization label {state!r}") from None
    ket = np.asarray(state, dtype=complex)
    if ket.shape != (2,):
        raise ValueError(f"single-qubit ket must have 2 components, got {ket.shape}")
    if abs(np.vdot(ket, ket).real - 1.0) > _KET_TOL:
        raise ValueError("single-qubit state is not normalized")
    return ket


@dataclass(frozen=True)
class ProjectorSetting:
    """One two-photon projective setting |a>|b><a|<b|.

    ``state_a`` / ``state_b`` are either polarization letters from
    {H, V, D, F, L, R} or explicit length-2 kets. A letter setting is
    labelled by its two letters; settings with explicit kets need a label.
    """

    state_a: object
    state_b: object
    label: str = ""

    def __post_init__(self):
        for name in ("state_a", "state_b"):
            value = getattr(self, name)
            if not isinstance(value, str):
                value = tuple(complex(c) for c in np.asarray(value).ravel())
                object.__setattr__(self, name, value)
            _as_ket(value)
        if isinstance(self.state_a, str) and isinstance(self.state_b, str):
            letters = self.state_a + self.state_b
            if self.label not in ("", letters):
                raise ValueError(
                    f"label {self.label!r} does not match the letter states {letters!r}"
                )
            object.__setattr__(self, "label", letters)
        elif not self.label:
            raise ValueError("settings with explicit kets need a label")

    def projector(self) -> np.ndarray:
        ket = np.kron(_as_ket(self.state_a), _as_ket(self.state_b))
        return np.outer(ket, ket.conj())


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for one setting, and the seed they were drawn with."""

    setting: ProjectorSetting
    counts: int
    seed: int | None = None

    def __post_init__(self):
        if self.counts < 0:
            raise ValueError(f"counts must be non-negative, got {self.counts}")


def standard_tomography_settings() -> tuple[ProjectorSetting, ...]:
    """The 16 product settings {H, V, D, L} x {H, V, D, L}.

    Informationally complete for two qubits: the four single-qubit
    projectors span the single-qubit operator space.
    """
    letters = "HVDL"
    return tuple(
        ProjectorSetting(a, b) for a, b in itertools.product(letters, letters)
    )


def witness_settings() -> tuple[ProjectorSetting, ...]:
    """The 8 settings of the witness protocol.

    Six projectors enter the witness combination; HV and VH complete the
    H/V basis used to normalize the rates.
    """
    return tuple(ProjectorSetting(lab[0], lab[1]) for lab in _WITNESS_LABELS)


def born_probability(rho: DensityMatrix, setting: ProjectorSetting) -> float:
    """Tr[rho P], clipped to [0, 1] within a 1e-12 tolerance."""
    p = float(np.trace(rho.entries @ setting.projector()).real)
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise ValueError(f"Born probability {p} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, p))


def simulate_counts(
    rho: DensityMatrix,
    settings: Sequence[ProjectorSetting],
    total_per_setting: int,
    seed: int,
) -> list[CountRecord]:
    """Draw Poisson counts with mean total_per_setting * Tr[rho P].

    Reproducible: a fixed seed gives identical records, and each record
    carries the seed it was drawn with.
    """
    if total_per_setting <= 0:
        raise ValueError("total_per_setting must be positive")
    rng = np.random.default_rng(seed)
    records = []
    for setting in settings:
        mean = total_per_setting * born_probability(rho, setting)
        records.append(
            CountRecord(
                setting=setting,
                counts=int(rng.poisson(mean)),
                seed=seed,
            )
        )
    return records


def _estimate_total(records: Sequence[CountRecord]) -> float:
    by_label = {r.setting.label: r for r in records}
    missing = [lab for lab in _COMPLETE_BASIS_LABELS if lab not in by_label]
    if missing:
        raise ValueError(
            f"cannot estimate flux: complete-basis settings {missing} absent "
            "and no total_per_setting given"
        )
    total = float(sum(by_label[lab].counts for lab in _COMPLETE_BASIS_LABELS))
    if total <= 0:
        raise ValueError("complete-basis counts sum to zero; flux unknown")
    return total


def _tomography_data(
    records: Sequence[CountRecord], total_per_setting: float | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Projector stack, counts and flux, after the 16-setting and rank checks."""
    if len(records) < 16:
        raise DesignError(f"need at least 16 settings, got {len(records)}")
    projectors = np.array([r.setting.projector() for r in records])
    if np.linalg.matrix_rank(projectors.reshape(len(records), 16)) < 16:
        raise DesignError("settings do not span the two-qubit operator space")
    n_total = total_per_setting if total_per_setting is not None else _estimate_total(records)
    counts = np.array([r.counts for r in records], dtype=float)
    return projectors, counts, n_total


def linear_reconstruction(
    records: Sequence[CountRecord],
    total_per_setting: float | None = None,
) -> DensityMatrix:
    """Invert the Born probabilities linearly.

    Returns a Hermitian, unit-trace matrix; under shot noise it may carry
    negative eigenvalues, so positivity is deliberately not enforced here.
    Raises ``DesignError`` unless the settings span the 16-dimensional
    operator space.
    """
    projectors, counts, n_total = _tomography_data(records, total_per_setting)
    # Tr[rho P] = sum_ij P_ji rho_ij: each row is P transposed, flattened.
    a = projectors.transpose(0, 2, 1).reshape(len(records), 16)
    vec, *_ = np.linalg.lstsq(a, (counts / n_total).astype(complex), rcond=None)
    m = vec.reshape(4, 4)
    m = 0.5 * (m + m.conj().T)
    m /= m.trace().real
    return DensityMatrix(TWO_PHOTON_BASIS, m, check_positive=False)


def _triangular_from_params(t: np.ndarray) -> np.ndarray:
    factor = np.zeros((4, 4), dtype=complex)
    factor[np.diag_indices(4)] = t[:4]
    factor[_LOWER_INDICES] = t[4::2] + 1j * t[5::2]
    return factor


def _params_from_state(rho: DensityMatrix) -> np.ndarray:
    """Parameters whose factor reproduces a physical version of ``rho``.

    Negative eigenvalues are clipped to zero and a small identity ridge
    keeps the triangular factorization defined for rank-deficient inputs.
    """
    vals, vecs = np.linalg.eigh(rho.entries)
    vals = np.clip(vals, 0.0, None)
    m = (vecs * vals) @ vecs.conj().T
    m = m / m.trace().real
    m = 0.999999 * m + 1e-6 * np.eye(4) / 4.0
    flip = np.eye(4)[::-1]
    lower = np.linalg.cholesky(flip @ m @ flip)
    factor = flip @ lower.conj().T @ flip
    t = np.zeros(16)
    t[:4] = np.diag(factor).real
    t[4::2] = factor[_LOWER_INDICES].real
    t[5::2] = factor[_LOWER_INDICES].imag
    return t


@dataclass(frozen=True)
class MLReconstruction:
    """Maximum-likelihood estimate with optimizer diagnostics."""

    state: DensityMatrix
    log_likelihood: float
    n_iterations: int


def ml_reconstruction(
    records: Sequence[CountRecord],
    init: DensityMatrix | None = None,
    total_per_setting: float | None = None,
    max_iterations: int = 2000,
) -> MLReconstruction:
    """Maximize the Poisson log-likelihood over physical density matrices.

    The objective is sum_i [n_i log mu_i - mu_i] with mu_i = N Tr[rho P_i]
    and rho = T'T / Tr(T'T) over the 16 real parameters of the lower
    triangular factor T. Gradients are analytic; convergence is declared at
    projected-gradient norm 1e-8 or relative objective change 1e-12, and
    exceeding the iteration cap raises ``ConvergenceError``.
    """
    projectors, counts, n_total = _tomography_data(records, total_per_setting)

    def objective(t: np.ndarray):
        factor = _triangular_from_params(t)
        gram = factor.conj().T @ factor
        norm = gram.trace().real
        rho = gram / norm
        mu = n_total * np.einsum("aij,ji->a", projectors, rho).real
        mu = np.maximum(mu, 1e-30)
        nll = -float(np.sum(xlogy(counts, mu) - mu))
        # dL/d(rho) contracted against d(rho)/d(params)
        weights = (counts / mu - 1.0) * n_total
        grad_rho = np.einsum("a,aij->ij", weights, projectors)
        inner = float(np.einsum("ij,ji->", grad_rho, rho).real)
        m = (factor @ grad_rho - inner * factor) / norm
        grad = np.zeros(16)
        grad[:4] = -2.0 * np.diag(m).real
        grad[4::2] = -2.0 * m[_LOWER_INDICES].real
        grad[5::2] = -2.0 * m[_LOWER_INDICES].imag
        return nll, grad

    if init is not None:
        t0 = _params_from_state(init)
    else:
        t0 = np.zeros(16)
        t0[:4] = 0.5
    result = minimize(
        objective,
        t0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": 1e-12, "gtol": 1e-8},
    )
    if not result.success:
        raise ConvergenceError(
            f"likelihood maximization did not converge: {result.message}",
            diagnostics={
                "iterations": int(result.nit),
                "final_objective": float(result.fun),
                "message": str(result.message),
            },
        )
    factor = _triangular_from_params(result.x)
    gram = factor.conj().T @ factor
    state = DensityMatrix(TWO_PHOTON_BASIS, gram / gram.trace().real)
    return MLReconstruction(
        state=state,
        log_likelihood=-float(result.fun),
        n_iterations=int(result.nit),
    )


@dataclass(frozen=True)
class WitnessEstimate:
    """Witness expectation estimated from counts, with its standard error."""

    value: float
    stderr: float


def witness_from_counts(records: Sequence[CountRecord]) -> WitnessEstimate:
    """Witness expectation from the 8-measurement protocol.

    Requires exactly the settings {HH, VV, DD, FF, LR, RL, HV, VH}. The
    flux is estimated from the complete basis {HH, HV, VH, VV}; the witness
    is W = (c_HH + c_VV + c_DD + c_FF - c_LR - c_RL) / (2 N). The standard
    error propagates Poisson variances through both numerator and the
    shared normalization.
    """
    by_label = {r.setting.label: r.counts for r in records}
    if set(by_label) != set(_WITNESS_LABELS) or len(records) != len(_WITNESS_LABELS):
        raise ValueError(
            f"witness protocol needs exactly the settings {_WITNESS_LABELS}"
        )
    n_total = _estimate_total(records)
    signed = {"HH": 1.0, "VV": 1.0, "DD": 1.0, "FF": 1.0, "LR": -1.0, "RL": -1.0}
    numerator = sum(sign * by_label[lab] for lab, sign in signed.items())
    value = numerator / (2.0 * n_total)

    variance = 0.0
    for lab in _WITNESS_LABELS:
        deriv = signed.get(lab, 0.0) / (2.0 * n_total)
        if lab in _COMPLETE_BASIS_LABELS:
            deriv -= numerator / (2.0 * n_total**2)
        variance += deriv**2 * by_label[lab]
    return WitnessEstimate(value=float(value), stderr=math.sqrt(variance))


# --- CountRecord CSV interface -------------------------------------------

_CSV_FIELDS = ("label", "stateA", "stateB", "counts", "seed")


def _count_row(record: CountRecord) -> list:
    setting = record.setting
    if not (isinstance(setting.state_a, str) and isinstance(setting.state_b, str)):
        raise ValueError(
            f"setting {setting.label!r} uses explicit kets; "
            "the CSV interface supports letter states only"
        )
    seed = "" if record.seed is None else record.seed
    return [setting.label, setting.state_a, setting.state_b, record.counts, seed]


def _count_record(row: list[str]) -> CountRecord:
    label, state_a, state_b, counts, seed = row
    return CountRecord(
        setting=ProjectorSetting(state_a, state_b, label=label),
        counts=int(counts),
        seed=int(seed) if seed else None,
    )


def write_count_records(records: Iterable[CountRecord], path) -> None:
    """Write records as CSV with columns (label, stateA, stateB, counts,
    seed). Settings must use polarization letters; nothing is written
    unless every record can be."""
    _csv.write_rows(path, _CSV_FIELDS, map(_count_row, records))


def read_count_records(path) -> list[CountRecord]:
    """Read a CountRecord CSV; malformed rows raise with their line number."""
    return _csv.read_rows(path, _CSV_FIELDS, _count_record)
