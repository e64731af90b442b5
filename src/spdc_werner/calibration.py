"""Detector singles rates versus pump power, and the nonlinear-gain fit.

A detector on one spatial mode sees the rate

    N(g) = R * eta * tanh(g)^2 / (1 - (1 - eta) * tanh(g)^2)

with R the pump repetition rate and eta the overall detection efficiency of
that arm. The gain tracks the pump field amplitude, g = a * sqrt(P), so a
joint fit of (a, eta_1, eta_2) to rate-versus-power data calibrates the
source, reporting g_max at the highest power. No state model is used here.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _csv, _newton
from .errors import FitError

_MIN_DISTINCT_POWERS = 5
_EPS = np.finfo(float).eps


def count_rate_model(g, eta, repetition_rate: float) -> float | np.ndarray:
    """Singles rate at gain g for a detector of efficiency eta.

    g and eta broadcast as numpy arrays; scalar inputs give a float. Monotone
    increasing in both g and eta; reduces to R * eta * tanh(g)^2 for small
    gain and to R * tanh(g)^2 at eta = 1. eta must be a normal double: at a
    subnormal eta, exp(-2g) underflows to 0 while eta*sinh(g)^2 is still of
    order 1, and the rate would saturate at R too early.

    The domain checks run here, on every call; the arithmetic is
    ``_rate_kernel``, which ``fit_gain`` calls directly on parameters that
    its bounds already keep in this domain.
    """
    g, eta = np.asarray(g), np.asarray(eta)
    bad_g = g[~(g >= 0)]
    if bad_g.size:
        raise ValueError(f"gain must be non-negative, got {bad_g.item(0)}")
    bad_eta = eta[~((sys.float_info.min <= eta) & (eta <= 1.0))]
    if bad_eta.size:
        raise ValueError(
            f"efficiency must lie in (0, 1] and be at least the smallest normal "
            f"double {sys.float_info.min}, got {bad_eta.item(0)}"
        )
    if not 0 < repetition_rate < math.inf:
        raise ValueError(f"repetition rate must be in (0, inf), got {repetition_rate}")
    rate, _, _ = _rate_kernel(g, eta, repetition_rate)
    return float(rate) if rate.ndim == 0 else rate


def _rate_kernel(g, eta, repetition_rate):
    """``count_rate_model``'s rate without its checks, together with the
    tanh(g) and sech(g)^2 it used.

    sech(g)^2 comes from exp(-2g), so that it neither overflows nor cancels
    at any gain, and 1 - (1 - eta) * tanh(g)^2 is written as
    eta * tanh(g)^2 + sech(g)^2: no cancellation where tanh(g)^2 and 1 - eta
    round to 1.
    """
    e = np.exp(-2.0 * g)
    tanh, sech2 = np.tanh(g), 4.0 * e / (1.0 + e) ** 2
    g2 = tanh**2
    return repetition_rate * eta * g2 / (eta * g2 + sech2), tanh, sech2


@dataclass(frozen=True)
class CalibrationPoint:
    """One measured singles rate: (pump power, counts/s, detector 1 or 2)."""

    pump_power: float
    rate: float
    detector: int

    def __post_init__(self):
        if not (math.isfinite(self.pump_power) and self.pump_power >= 0):
            raise ValueError(
                f"pump power must be finite and non-negative, got {self.pump_power}"
            )
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and non-negative, got {self.rate}")
        if self.detector not in (1, 2):
            raise ValueError(f"detector must be 1 or 2, got {self.detector}")


@dataclass(frozen=True, eq=False)
class CalibrationFit:
    """Fitted gain scale and per-detector efficiencies.

    ``gain_scale`` is a in g = a * sqrt(P); ``covariance`` is ordered
    (a, then efficiencies by detector id); ``residuals`` are relative,
    aligned with the input points.
    """

    gain_scale: float
    etas: dict[int, float]
    repetition_rate: float
    g_max: float
    covariance: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)


def _relative_residuals(params, sqrt_power, rate, detector_index, repetition_rate):
    """Relative residual per point for params (a, eta per detector), or one
    row of residuals per row of a parameter stack."""
    model, _, _ = _rate_kernel(params[..., :1] * sqrt_power,
                               params[..., 1:][..., detector_index], repetition_rate)
    return (model - rate) / np.maximum(model, 1e-12)


@functools.cache
def _start_gains() -> np.ndarray:
    """The start grid's gains at the highest power, read-only. Built on first
    use rather than at import: the first ``geomspace`` call pages in about
    0.3 MB of numpy, which a process that never fits should not pay."""
    gains = np.geomspace(0.05, 20.0, 60)
    gains.setflags(write=False)
    return gains


def _initial_guess(sqrt_power, rate, detector_index, repetition_rate):
    """Coarse grid over the gain scale, efficiency solved from the
    highest-power point of each detector."""
    ids = np.arange(detector_index.max() + 1)[:, None]
    top = np.argmax(np.where(detector_index == ids, sqrt_power, -1.0), axis=1)
    a = _start_gains() / sqrt_power.max()
    g2 = np.tanh(a[:, None] * sqrt_power[top]) ** 2
    denom = g2 * np.maximum(repetition_rate - rate[top], 1e-9)
    eta = np.divide(rate[top] * (1.0 - g2), denom, out=np.full_like(denom, 0.5),
                    where=denom > 0)
    guesses = np.column_stack([a, np.clip(eta, 1e-9, 1.0)])
    sse = np.sum(_relative_residuals(guesses, sqrt_power, rate, detector_index,
                                     repetition_rate) ** 2, axis=1)
    return guesses[np.argmin(sse)]


def _residuals_and_jacobian(params, sqrt_power, rate, detector_index, repetition_rate):
    """Relative residuals for params (a, eta per detector) and their
    analytic Jacobian, from one kernel call."""
    g, eta = params[0] * sqrt_power, params[1:][detector_index]
    model, tanh, sech2 = _rate_kernel(g, eta, repetition_rate)
    floored = np.maximum(model, 1e-12)
    residuals = (model - rate) / floored
    # dr/dN * dN/dtheta with dN/dg = R eta 2 tanh(g) sech(g)^2 / D^2 and
    # dN/deta = R tanh(g)^2 sech(g)^2 / D^2, D = eta tanh(g)^2 + sech(g)^2.
    # Above the floor dr/dN = (rate / N) / N, evaluated as (rate / N) times
    # dlog N / dtheta, which neither overflows nor divides by zero.
    denominator = eta * tanh**2 + sech2
    scale = np.where(model > 1e-12, rate, model) / floored
    dlog_dg = np.divide(2.0 * sech2, tanh * denominator,
                        out=np.zeros_like(g), where=model > 0)
    jac = np.zeros((len(rate), len(params)))
    jac[:, 0] = scale * dlog_dg * sqrt_power
    jac[np.arange(len(rate)), 1 + detector_index] = scale * sech2 / (eta * denominator)
    return residuals, jac


def fit_gain(points: Sequence[CalibrationPoint], repetition_rate: float) -> CalibrationFit:
    """Least-squares fit of (gain scale, efficiencies) to rate-power data.

    Requires at least 5 distinct powers, a nonzero rate per detector
    present in the data and every rate below the repetition rate, where the
    model saturates. Residuals are relative (rate noise is multiplicative).

    The search is Levenberg-Marquardt: the damped Newton loop of ``_newton``
    with H = J'J and the analytic Jacobian J of the residuals, from the best
    point of a coarse start grid, each step clipped to the bounds a >= 1e-12
    and 1e-12 <= eta <= 1. It stops when every column of J is within 1e-12
    of orthogonal to the residual vector r (MINPACK's gtol test,
    |J_j'r| <= 1e-12 |J_j| |r|, skipping a parameter that the cost pushes
    against its bound). Rounding leaves about 1e-14 there at 1% noise, so
    the test is reachable; where it is not, as on noiseless data, the loop
    ends when neither the cost nor its gradient can improve. 300 steps
    without either raise ``FitError``. So does a fit that ends with a or an
    efficiency on the 1e-12 bound, which only keeps the model defined, or
    with an efficiency at 1 and the cost pushing it further: the data ask
    for a value the model cannot take, and no covariance means anything
    there. And so does a Jacobian of rank below the number of parameters at
    the end, where the data do not determine them.

    Each evaluation makes one call to the unchecked ``_rate_kernel``: the
    inputs are checked once here, and the bounds keep every parameter in
    ``count_rate_model``'s domain.

    The parameters come out within about 3e-12 relative of the minimum (on
    criterion 7's 50 sets and the bundled demo data, against Gauss-Newton
    iterated to a cosine of 1e-14), and scaling the model by 1 - 1e-15 to
    1 + 4e-15 moves g_max on the demo data by at most 2.5e-15 relative.
    """
    if not 0 < repetition_rate < math.inf:
        raise ValueError(f"repetition rate must be in (0, inf), got {repetition_rate}")
    points = list(points)
    detectors = sorted({pt.detector for pt in points})
    if not detectors:
        raise FitError("no calibration points")
    power = np.array([pt.pump_power for pt in points])
    rate = np.array([pt.rate for pt in points])
    saturated = np.flatnonzero(rate >= repetition_rate)
    if saturated.size:
        pt = points[saturated[0]]
        raise FitError(
            f"point {saturated[0] + 1} (power {pt.pump_power}, detector {pt.detector}) "
            f"has rate {pt.rate} at or above the repetition rate {repetition_rate}, "
            "which the model never reaches"
        )
    detector_index = np.searchsorted(detectors, [pt.detector for pt in points])
    for i, det in enumerate(detectors):
        mine = detector_index == i
        n_powers = len(np.unique(power[mine]))
        if n_powers < _MIN_DISTINCT_POWERS:
            raise FitError(
                f"detector {det} has {n_powers} distinct powers; "
                f"need at least {_MIN_DISTINCT_POWERS}"
            )
        # all-zero rates give every relative residual 1 at every parameter
        # value, so the optimizer would stop at its start point
        if not rate[mine].any():
            raise FitError(f"detector {det} has rate 0 at every power")

    sqrt_power = np.sqrt(power)
    args = (sqrt_power, rate, detector_index, repetition_rate)
    lower = np.array([1e-12] + [1e-12] * len(detectors))
    upper = np.array([np.inf] + [1.0] * len(detectors))

    def evaluate(params):
        residuals, jac = _residuals_and_jacobian(params, *args)
        return 0.5 * float(residuals @ residuals), residuals @ jac, jac.T @ jac

    def converged(x, cost, grad, jtj):
        # a parameter at a bound that the cost pushes against is settled
        pinned = ((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0))
        orthogonal = np.abs(grad) <= 1e-12 * np.sqrt(2.0 * cost * np.diag(jtj))
        return bool(np.all(pinned | orthogonal))

    result = _newton.minimize(
        evaluate,
        _initial_guess(*args),
        project=lambda x: np.clip(x, lower, upper),
        converged=converged,
        max_iter=300,
    )
    if not result.converged:
        raise FitError(f"fit did not converge: {result.message}")
    residuals, jac = _residuals_and_jacobian(result.x, *args)
    grad, jtj = residuals @ jac, jac.T @ jac
    # At eta = 1 the cost pushes outward when a Newton step in that efficiency
    # alone, -grad_j / jtj_jj, passes 1 by more than 1e-10, well above the
    # fit's 3e-12 precision; on noiseless data at eta = 1 it is about 1e-16.
    held = (result.x <= lower) | ((result.x >= upper) & (-grad > 1e-10 * np.diag(jtj)))
    if held.any():
        names = ["gain scale"] + [f"efficiency {det}" for det in detectors]
        raise FitError("the fit ends on a parameter bound, where the data ask for a "
                       "value the model cannot take: " + ", ".join(
                           f"{names[i]} = {result.x[i]:g}" for i in np.flatnonzero(held)))
    # Column j of jac * x is the change of the residuals per relative change
    # of parameter j. Singular values at or below rounding of residuals of
    # order one, or of the largest one, leave a direction the data cannot see.
    singular = np.linalg.svd(jac * result.x, compute_uv=False)
    rank = int(np.sum(singular > len(rate) * _EPS * max(singular[0], 1.0)))
    if rank < len(result.x):
        raise FitError(
            f"the data do not determine the parameters: the Jacobian at the fit "
            f"has rank {rank} < {len(result.x)}"
        )
    a = float(result.x[0])
    dof = max(len(points) - len(result.x), 1)
    covariance = float(residuals @ residuals) / dof * np.linalg.inv(jtj)
    return CalibrationFit(
        gain_scale=a,
        etas={det: float(e) for det, e in zip(detectors, result.x[1:])},
        repetition_rate=repetition_rate,
        g_max=a * float(sqrt_power.max()),
        covariance=covariance,
        residuals=residuals,
    )


def synthetic_calibration_points(
    gain_scale: float,
    etas: dict[int, float],
    repetition_rate: float,
    powers: Sequence[float],
    noise_fraction: float = 0.0,
    seed: int | None = None,
) -> list[CalibrationPoint]:
    """Model-generated rate data with multiplicative Gaussian noise.

    ``noise_fraction`` is the noise's standard deviation relative to the
    rate, finite and non-negative.
    """
    if not 0.0 <= noise_fraction < math.inf:
        raise ValueError(
            f"noise fraction must be finite and non-negative, got {noise_fraction}"
        )
    rng = np.random.default_rng(seed)
    gains = gain_scale * np.sqrt(powers)
    points = []
    for det, eta in sorted(etas.items()):
        rates = count_rate_model(gains, eta, repetition_rate)
        if noise_fraction > 0.0:
            rates = rates * (1.0 + noise_fraction * rng.standard_normal(len(powers)))
        points += [CalibrationPoint(power, max(float(r), 0.0), det)
                   for power, r in zip(powers, rates)]
    return points


# --- calibration CSV interface ---------------------------------------------

_CSV_FIELDS = ("power", "rate", "detector")


def _calibration_point(row: list[str]) -> CalibrationPoint:
    power, rate, detector = row
    return CalibrationPoint(float(power), float(rate), int(detector))


def write_calibration_csv(points: Iterable[CalibrationPoint], path) -> None:
    _csv.write_rows(path, _CSV_FIELDS, (
        [f"{pt.pump_power:.12g}", f"{pt.rate:.12g}", pt.detector] for pt in points
    ))


def read_calibration_csv(path) -> list[CalibrationPoint]:
    return _csv.read_rows(path, _CSV_FIELDS, _calibration_point)
