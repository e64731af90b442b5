"""Coincidence-count simulation and density-matrix reconstruction.

Measurements are polarization projectors |a>|b><a|<b| set independently on
the two spatial modes. Counts are Poisson with mean N * Tr[rho P]; the
total flux N per setting is either supplied or estimated from the complete
basis {HH, HV, VH, VV}, whose outcome probabilities sum to one; the estimate
needs each of the four settings exactly once.

Reconstruction comes in two stages: linear inversion of the Born
probabilities (exact but possibly indefinite under shot noise) and a
maximum-likelihood refinement over the Cholesky-like parameterization
rho = V T'T V' / Tr(T'T) with T complex lower triangular and V the
eigenvectors of the linear estimate, which is positive semidefinite by
construction.

Counts travel as CSV rows (label, stateA, stateB, counts, seed). A setting
is its two letters, and its label is derived from them; the reader rejects
a row whose label column differs from its letters, and counts above 2**53,
beyond which float64 counts are not exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _csv, _newton
from .errors import ConvergenceError, DesignError
from .fock import TWO_PHOTON_BASIS, DensityMatrix
from .metrics import PAIR_PROJECTORS, POLARIZATION_KETS, WITNESS_SIGNS

_WITNESS_LABELS = tuple(WITNESS_SIGNS) + ("HV", "VH")

# Fill order (1,0), (2,0), (2,1), (3,0), (3,1), (3,2) of the (re, im) parameters.
_LOWER_INDICES = np.tril_indices(4, -1)
# Parameter k multiplies _PARAM_COEFS[k] at (_PARAM_ROWS[k], _PARAM_COLS[k]) in T.
_PARAM_ROWS = np.concatenate([np.arange(4), np.repeat(_LOWER_INDICES[0], 2)])
_PARAM_COLS = np.concatenate([np.arange(4), np.repeat(_LOWER_INDICES[1], 2)])
_PARAM_COEFS = np.array([1, 1, 1, 1] + [1, 1j] * 6)
_SAME_ROW = _PARAM_ROWS[:, None] == _PARAM_ROWS[None, :]


@dataclass(frozen=True)
class ProjectorSetting:
    """One two-photon projective setting |a>|b><a|<b|.

    ``state_a`` / ``state_b`` are polarization letters from
    {H, V, D, F, L, R}; the setting is labelled by its two letters.
    """

    state_a: str
    state_b: str

    def __post_init__(self):
        for value in (self.state_a, self.state_b):
            if not (isinstance(value, str) and value in POLARIZATION_KETS):
                raise ValueError(f"unknown polarization label {value!r}")

    @functools.cached_property
    def label(self) -> str:
        """The two letters, ``state_a + state_b``."""
        return self.state_a + self.state_b

    def __hash__(self):
        # equal settings have equal labels; a str caches its own hash
        return hash(self.label)

    def projector(self) -> np.ndarray:
        """The read-only |ab><ab| from ``metrics.PAIR_PROJECTORS``."""
        return PAIR_PROJECTORS[self.label]


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for one setting, and the seed they were drawn with."""

    setting: ProjectorSetting
    counts: int
    seed: int | None = None

    def __post_init__(self):
        if self.counts < 0:
            raise ValueError(f"counts must be non-negative, got {self.counts}")
        if self.counts > 2**53:  # beyond it float64 counts are not exact
            raise ValueError(f"counts must be at most 2**53, got {self.counts}")


@functools.cache
def _settings_by_letters() -> dict[tuple[str, str], ProjectorSetting]:
    """The 36 settings, one object per pair of letters, built on first use."""
    return {(a, b): ProjectorSetting(a, b)
            for a, b in itertools.product(POLARIZATION_KETS, repeat=2)}


@functools.cache
def standard_tomography_settings() -> tuple[ProjectorSetting, ...]:
    """The 16 product settings {H, V, D, L} x {H, V, D, L}.

    Informationally complete for two qubits: the four single-qubit
    projectors span the single-qubit operator space. One tuple per process,
    built on the first call.
    """
    settings = _settings_by_letters()
    return tuple(settings[ab] for ab in itertools.product("HVDL", repeat=2))


@functools.cache
def witness_settings() -> tuple[ProjectorSetting, ...]:
    """The 8 settings of the witness protocol.

    Six projectors enter the witness combination; HV and VH complete the
    H/V basis used to normalize the rates. One tuple per process, built on
    the first call.
    """
    settings = _settings_by_letters()
    return tuple(settings[lab[0], lab[1]] for lab in _WITNESS_LABELS)


def _born_probabilities(rho: DensityMatrix, projectors: np.ndarray) -> np.ndarray:
    """Tr[rho P] for each P of a projector stack, clipped to [0, 1] within a
    1e-12 tolerance."""
    p = np.trace(rho.entries @ projectors, axis1=1, axis2=2).real
    bad = p[(p < -1e-12) | (p > 1.0 + 1e-12)]
    if bad.size:
        raise ValueError(f"Born probability {bad[0]} outside [0, 1] beyond tolerance")
    return np.clip(p, 0.0, 1.0)


def born_probability(rho: DensityMatrix, setting: ProjectorSetting) -> float:
    """Tr[rho P], clipped to [0, 1] within a 1e-12 tolerance."""
    return float(_born_probabilities(rho, setting.projector()[None])[0])


class _Design(NamedTuple):
    """What a sequence of settings fixes: the read-only projector stack, the
    rank of the design matrix A with Tr[rho P_i] = (A vec(rho))_i, and A's
    read-only pseudo-inverse."""

    projectors: np.ndarray
    rank: int
    pinv: np.ndarray


@functools.lru_cache(maxsize=64)
def _design(settings: tuple[ProjectorSetting, ...]) -> _Design:
    """The design of ``settings``, built on first use and then cached: one
    singular value decomposition per design and process."""
    projectors = np.array([s.projector() for s in settings]).reshape(-1, 4, 4)
    # Tr[rho P] = sum_ij P_ji rho_ij: each row is P transposed, flattened.
    a = projectors.transpose(0, 2, 1).reshape(len(settings), 16)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    # np.linalg.matrix_rank's tolerance
    kept = s > s.max(initial=0.0) * max(a.shape) * np.finfo(float).eps
    pinv = (vh[kept].conj().T / s[kept]) @ u[:, kept].conj().T
    projectors.setflags(write=False)
    pinv.setflags(write=False)
    return _Design(projectors, int(kept.sum()), pinv)


def _require_flux(total_per_setting: float) -> None:
    if not 0 < total_per_setting < math.inf:
        raise ValueError(
            f"total_per_setting must be positive and finite, got {total_per_setting}"
        )


def simulate_counts(
    rho: DensityMatrix,
    settings: Sequence[ProjectorSetting],
    total_per_setting: int,
    seed: int,
) -> list[CountRecord]:
    """Draw Poisson counts with mean total_per_setting * Tr[rho P].

    Reproducible: a fixed seed gives identical records, and each record
    carries the seed it was drawn with. The projector stack of the settings
    is built once per process (``_design``); every call takes all Born
    probabilities from one batched trace, checked and clipped as
    ``born_probability`` does, and draws all counts in one vector Poisson
    call, which gives the same counts as a scalar draw per setting in order.
    """
    _require_flux(total_per_setting)
    # Counts above 2**53 are not exact float64 integers; a draw at mean at
    # most 2**52 exceeds 2**53 only 2**26 standard deviations out.
    if total_per_setting > 2**52:
        raise ValueError(f"total_per_setting must be at most 2**52, got {total_per_setting}")
    settings = tuple(settings)
    means = total_per_setting * _born_probabilities(rho, _design(settings).projectors)
    counts = np.random.default_rng(seed).poisson(means)
    return [CountRecord(setting=setting, counts=n, seed=seed)
            for setting, n in zip(settings, counts.tolist())]


def _estimate_total(records: Sequence[CountRecord]) -> float:
    labels = [r.setting.label for r in records]
    by_label = {r.setting.label: r for r in records}
    missing = [lab for lab in TWO_PHOTON_BASIS if lab not in by_label]
    if missing:
        raise ValueError(
            f"cannot estimate flux: complete-basis settings {missing} absent "
            "and no total_per_setting given"
        )
    # a repeated row would count once here but every time in the likelihood
    repeated = [lab for lab in TWO_PHOTON_BASIS if labels.count(lab) > 1]
    if repeated:
        raise ValueError(
            f"cannot estimate flux: complete-basis settings {repeated} repeated "
            "and no total_per_setting given"
        )
    total = float(sum(by_label[lab].counts for lab in TWO_PHOTON_BASIS))
    if total <= 0:
        raise ValueError("complete-basis counts sum to zero; flux unknown")
    return total


def _tomography_data(
    records: Sequence[CountRecord], total_per_setting: float | None
) -> tuple[_Design, np.ndarray, float]:
    """Design, counts and flux, after the 16-setting, rank and flux checks.

    The design comes from the cache; the checks run on every call.
    """
    if len(records) < 16:
        raise DesignError(f"need at least 16 settings, got {len(records)}")
    design = _design(tuple(r.setting for r in records))
    if design.rank < 16:
        raise DesignError("settings do not span the two-qubit operator space")
    if total_per_setting is None:
        n_total = _estimate_total(records)
    else:
        _require_flux(total_per_setting)
        n_total = total_per_setting
    counts = np.array([r.counts for r in records], dtype=float)
    return design, counts, n_total


def _linear_estimate(design: _Design, counts: np.ndarray, n_total: float) -> np.ndarray:
    """Hermitian least-squares solution of Tr[rho P_i] = n_i / N, trace not
    fixed: one product with the design's pseudo-inverse."""
    m = (design.pinv @ (counts / n_total)).reshape(4, 4)
    return 0.5 * (m + m.conj().T)


def linear_reconstruction(
    records: Sequence[CountRecord],
    total_per_setting: float | None = None,
) -> np.ndarray:
    """Invert the Born probabilities linearly.

    Returns a read-only Hermitian, unit-trace 4x4 array on (HH, HV, VH, VV),
    not a ``DensityMatrix``: under shot noise it may carry negative
    eigenvalues, so it need not be a physical state.
    Raises ``DesignError`` unless the settings span the 16-dimensional
    operator space, and ``ValueError`` if the estimate's trace is zero, as
    when a given flux meets HH, HV, VH and VV counts that are all zero.

    The design matrix's pseudo-inverse and rank are computed once per
    process and sequence of settings (``_design``), so a call is one
    matrix-vector product; the setting count, rank, flux and trace checks
    run on every call.
    """
    design, counts, n_total = _tomography_data(records, total_per_setting)
    m = _linear_estimate(design, counts, n_total)
    trace = m.trace().real
    # A trace that is zero in exact arithmetic leaves the solve as rounding
    # of a few 1e-15 of the largest rate (the 16-setting design's condition
    # number is about 10); one complete-basis count gives 1/N, above 1e-12
    # of that rate unless some setting holds more than 1e12 counts.
    if abs(trace) <= 1e-12 * counts.max() / n_total:
        raise ValueError(
            f"linear estimate has zero trace ({trace:.1e}), as when the "
            "complete-basis counts HH, HV, VH and VV are all zero"
        )
    estimate = m / trace
    estimate.setflags(write=False)
    return estimate


def _triangular_from_params(t: np.ndarray) -> np.ndarray:
    factor = np.zeros((4, 4), dtype=complex)
    np.add.at(factor, (_PARAM_ROWS, _PARAM_COLS), _PARAM_COEFS * t)
    return factor


def _state(t: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """V T'T V' / Tr(T'T) for the parameters t and the frame V."""
    factor = _triangular_from_params(t) @ frame.conj().T
    gram = factor.conj().T @ factor
    return gram / gram.trace().real


@dataclass(frozen=True)
class MLReconstruction:
    """Maximum-likelihood estimate with optimizer diagnostics: the number of
    Newton steps and the stop rule that ended the search."""

    state: DensityMatrix
    log_likelihood: float
    n_iterations: int
    stop_reason: str


def _cholesky_quadratic_forms(projectors: np.ndarray) -> np.ndarray:
    """The 16x16 Q_i with Tr(T'T P_i) = t'Q_i t, one per projector.

    T = sum_k t_k c_k E(row_k, col_k), so Tr(T'T P) is the sum over k, l of
    t_k t_l conj(c_k) c_l P[col_l, col_k] for row_k = row_l; Q is its real
    part, symmetric because P is Hermitian.
    """
    pair = projectors[:, _PARAM_COLS[None, :], _PARAM_COLS[:, None]]
    return (_PARAM_COEFS.conj()[:, None] * _PARAM_COEFS * _SAME_ROW * pair).real


def _negative_log_likelihood(projectors, counts, n_total):
    """evaluate(t) -> (f, gradient, hessian) for f = sum_i [mu_i - n_i log mu_i],
    mu_i = N t'Q_i t / t't, floored at 1e-30 before the logarithm; ``hessian``
    builds the Hessian when called, which ``_newton`` does only where it steps.

    f does not change when t is scaled, so its Hessian is singular along t;
    N t t', the Hessian of N (t't - 1)^2 / 8 on the unit sphere where every
    iterate lies, is added to make the Newton system regular there.
    """
    quadratic = _cholesky_quadratic_forms(projectors)
    identity = np.eye(16)

    def evaluate(t):
        qt = quadratic @ t
        norm = t @ t
        prob = qt @ t / norm
        mu = np.maximum(n_total * prob, 1e-30)
        value = float(mu.sum() - counts @ np.log(mu))
        dprob = 2.0 * (qt - prob[:, None] * t) / norm
        weight = n_total * (1.0 - counts / mu)  # df/dprob
        grad = weight @ dprob

        def hessian():
            hess = (2.0 * np.tensordot(weight, quadratic, 1) - 2.0 * (weight @ prob) * identity
                    - 2.0 * (np.outer(grad, t) + np.outer(t, grad))) / norm
            hess += (dprob.T * (counts * (n_total / mu) ** 2)) @ dprob
            hess += n_total * np.outer(t, t)
            return hess

        return value, grad, hessian

    return evaluate


def ml_reconstruction(
    records: Sequence[CountRecord],
    total_per_setting: float | None = None,
) -> MLReconstruction:
    """Maximize the Poisson log-likelihood over physical density matrices.

    The objective is sum_i [n_i log mu_i - mu_i] with mu_i = N Tr[rho P_i].
    The state is rho = V T'T V' / Tr(T'T), with V the eigenvectors of the
    linear estimate of the same data in ascending order of eigenvalue, over
    the 16 real parameters t of the lower triangular factor T (James, Kwiat,
    Munro & White, PRA 64, 052312 (2001)), so Tr(T'T V'P_iV) = t'Q_i t and
    Tr(T'T) = t't. The search starts from the linear estimate, where T is
    diagonal, with its eigenvalues raised to at least 1e-4: an eigenvalue at
    zero would grow only at second order in T, so the likelihood gradient
    could not lift it. In that frame the small eigenvalues sit in the first
    rows of T, which can vanish without the others moving, so an optimum
    of lower rank lies near the start.

    Where the start already fits every count, it is returned unsearched:
    its state rho_0, built as the search's 0-step exit builds it, gives
    mu_i = N Tr[rho_0 P_i] from the design's projector stack, and if every
    |mu_i - n_i| <= 2.4e-10 / m * mu_i over the m settings (1.5e-11 for the
    16 standard ones), rho_0 comes back with 0 iterations and the loop's
    stop reason "gradient within tolerance". That bound implies the loop's
    own first stop test below: the gradient is sum_i N (1 - n_i / mu_i)
    d prob_i / dt, and on the unit sphere |d prob_i / dt_k| <= 4, since
    prob_i = t'Q_i t with 0 <= Q_i <= I; so every component is at most
    4 * 2.4e-10 * N = 9.6e-10 * N, below the 1e-9 * N tolerance. mu_i > 0
    because rho_0 is positive definite. Where the design is square, as with
    the 16 standard settings, and the linear estimate is positive definite
    with the flux estimated, that estimate fits every count and most calls
    end here, without the quadratic forms below.

    Otherwise the search is ``_newton``'s damped Newton loop on the unit
    sphere, on the exact gradient and Hessian; the Hessian is built only at
    the points the loop steps from. ``_newton`` states its stop rules;
    ``stop_reason`` is the message of the one that ended the search. The
    values passed to them:

    * Gradient tolerance 1e-9 * N. The objective and its gradient scale with
      the flux N; at an exact fit rounding leaves below 1e-14 * N, and a
      gradient of 1e-9 * N leaves about 1e-18 * N of likelihood to gain
      (the Hessian is of order N). A start that passes this test but not
      the early return's stops before the first step, without building a
      Hessian.
    * Relative decrease 1e-12, the rule L-BFGS-B stopped on here before. At
      an optimum of lower rank the factor T is not unique, the objective is
      flat along those directions and Newton steps there gain little.
    * 2000 steps, after which it raises ``ConvergenceError``.

    The projector stack and the pseudo-inverse behind the linear estimate
    come from the per-process design cache, as in ``linear_reconstruction``,
    with the same checks on every call; the quadratic forms depend on the
    estimate's eigenbasis and are built only for a search.
    """
    design, counts, n_total = _tomography_data(records, total_per_setting)
    eigenvalues, frame = np.linalg.eigh(_linear_estimate(design, counts, n_total))
    start = np.zeros(16)
    start[:4] = np.sqrt(np.maximum(eigenvalues, 1e-4))
    # the state of the search's 0-step exit, which starts from start / |start|
    rho = _state(start / np.linalg.norm(start), frame)
    # Tr[P rho] = sum_ij P_ij rho_ji
    mu = n_total * (design.projectors.reshape(-1, 16) @ rho.T.ravel()).real
    if np.all(np.abs(mu - counts) <= 2.4e-10 / len(counts) * mu):
        return MLReconstruction(
            state=DensityMatrix(rho),
            log_likelihood=-float(mu.sum() - counts @ np.log(mu)),
            n_iterations=0,
            stop_reason="gradient within tolerance",
        )
    result = _newton.minimize(
        _negative_log_likelihood(frame.conj().T @ design.projectors @ frame, counts, n_total),
        start,
        gtol=1e-9 * n_total,
        ftol=1e-12,
        max_iter=2000,
    )
    if not result.converged:
        raise ConvergenceError(
            f"likelihood maximization did not converge: {result.message}",
            diagnostics={
                "iterations": result.iterations,
                "final_objective": result.value,
                "message": result.message,
            },
        )
    return MLReconstruction(
        state=DensityMatrix(_state(result.x, frame)),
        log_likelihood=-result.value,
        n_iterations=result.iterations,
        stop_reason=result.message,
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
    numerator = sum(sign * by_label[lab] for lab, sign in WITNESS_SIGNS.items())
    value = numerator / (2.0 * n_total)

    variance = 0.0
    for lab in _WITNESS_LABELS:
        deriv = WITNESS_SIGNS.get(lab, 0) / (2.0 * n_total)
        if lab in TWO_PHOTON_BASIS:
            deriv -= numerator / (2.0 * n_total**2)
        variance += deriv**2 * by_label[lab]
    return WitnessEstimate(value=float(value), stderr=math.sqrt(variance))


# --- CountRecord CSV interface -------------------------------------------

_CSV_FIELDS = ("label", "stateA", "stateB", "counts", "seed")


def _count_row(record: CountRecord) -> list:
    setting = record.setting
    seed = "" if record.seed is None else record.seed
    return [setting.label, setting.state_a, setting.state_b, record.counts, seed]


def _count_record(row: list[str]) -> CountRecord:
    label, state_a, state_b, counts, seed = row
    setting = _settings_by_letters().get((state_a, state_b))
    if setting is None:
        setting = ProjectorSetting(state_a, state_b)  # raises on the unknown letter
    if label != setting.label:
        raise ValueError(
            f"label {label!r} does not match the letter states {setting.label!r}"
        )
    return CountRecord(
        setting=setting,
        counts=int(counts),
        seed=int(seed) if seed else None,
    )


def write_count_records(records: Iterable[CountRecord], path) -> None:
    """Write records as CSV with columns (label, stateA, stateB, counts,
    seed); nothing is written unless every record can be."""
    _csv.write_rows(path, _CSV_FIELDS, map(_count_row, records))


def read_count_records(path) -> list[CountRecord]:
    """Read a CountRecord CSV; malformed rows, among them a label that is
    not the row's two letters, raise with their line number."""
    return _csv.read_rows(path, _CSV_FIELDS, _count_record)
