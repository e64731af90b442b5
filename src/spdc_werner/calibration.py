"""Detector singles rates versus pump power, and the nonlinear-gain fit.

A detector on one spatial mode sees the rate

    N(g) = R * eta * tanh(g)^2 / (1 - (1 - eta) * tanh(g)^2)

with R the pump repetition rate and eta the overall detection efficiency of
that arm. The gain tracks the pump field amplitude, g = a * sqrt(P), so a
joint fit of (a, eta_1, eta_2) to rate-versus-power data calibrates the
source; the gain at the highest measured power is reported as g_max.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _csv
from .errors import FitError
from .source import GainChannelParams, mean_photons_per_mode

_MIN_DISTINCT_POWERS = 5


def count_rate_model(g, eta, repetition_rate: float) -> float | np.ndarray:
    """Singles rate at gain g for a detector of efficiency eta.

    g and eta broadcast as numpy arrays; scalar inputs give a float. Monotone
    increasing in both g and eta; reduces to R * eta * tanh(g)^2 for small
    gain and to R * tanh(g)^2 at eta = 1. eta must be a normal double: at a
    subnormal eta, exp(-2g) underflows to 0 while eta*sinh(g)^2 is still of
    order 1, and the rate would saturate at R too early.
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
    # 1 - (1 - eta) * tanh(g)^2 written as eta * tanh(g)^2 + sech(g)^2, with
    # sech^2 from exp(-2g): no cancellation where tanh(g)^2 and 1 - eta round
    # to 1, and no overflow at any gain.
    g2 = np.tanh(g) ** 2
    e = np.exp(-2.0 * g)
    sech2 = 4.0 * e / (1.0 + e) ** 2
    rate = repetition_rate * eta * g2 / (eta * g2 + sech2)
    return float(rate) if rate.ndim == 0 else rate


def transmitted_photons_per_mode(params: GainChannelParams) -> float:
    """eta * sinh(g)^2: mean photons per mode surviving the channel.

    The two-photon coincidence treatment assumes this is much less than 1;
    the CLI warns above 0.1. 0 at eta = 0, even where sinh(g)^2 is inf.
    """
    if params.eta == 0.0:
        return 0.0
    return params.eta * mean_photons_per_mode(params)


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
    model = count_rate_model(params[..., :1] * sqrt_power,
                             params[..., 1:][..., detector_index], repetition_rate)
    return (model - rate) / np.maximum(model, 1e-12)


def _initial_guess(sqrt_power, rate, detector_index, repetition_rate):
    """Coarse grid over the gain scale, efficiency solved from the
    highest-power point of each detector."""
    ids = np.arange(detector_index.max() + 1)[:, None]
    top = np.argmax(np.where(detector_index == ids, sqrt_power, -1.0), axis=1)
    a = np.geomspace(0.05, 20.0, 60) / sqrt_power.max()
    g2 = np.tanh(a[:, None] * sqrt_power[top]) ** 2
    denom = g2 * np.maximum(repetition_rate - rate[top], 1e-9)
    eta = np.divide(rate[top] * (1.0 - g2), denom, out=np.full_like(denom, 0.5),
                    where=denom > 0)
    guesses = np.column_stack([a, np.clip(eta, 1e-9, 1.0)])
    sse = np.sum(_relative_residuals(guesses, sqrt_power, rate, detector_index,
                                     repetition_rate) ** 2, axis=1)
    return guesses[np.argmin(sse)]


def fit_gain(points: Sequence[CalibrationPoint], repetition_rate: float) -> CalibrationFit:
    """Least-squares fit of (gain scale, efficiencies) to rate-power data.

    Requires at least 5 distinct powers and a nonzero rate per detector
    present in the data. Residuals are relative (rate noise is
    multiplicative). Raises ``FitError`` on non-convergence.

    The fit determines the gain scale, g_max and the efficiencies to about 9
    significant digits, not to the 17 a float prints: ``least_squares``
    stops at its 1e-14 tolerances where rounding in the residuals takes it,
    so moving the model by 2e-15 relative moved g_max on the bundled demo
    data by about 1e-9 relative.
    """
    if not 0 < repetition_rate < math.inf:
        raise ValueError(f"repetition rate must be in (0, inf), got {repetition_rate}")
    points = list(points)
    detectors = sorted({pt.detector for pt in points})
    if not detectors:
        raise FitError("no calibration points")
    power = np.array([pt.pump_power for pt in points])
    rate = np.array([pt.rate for pt in points])
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

    # Imported here: scipy.optimize is most of the package's import time.
    from scipy.optimize import least_squares
    sqrt_power = np.sqrt(power)
    args = (sqrt_power, rate, detector_index, repetition_rate)
    lower = np.array([1e-12] + [1e-12] * len(detectors))
    upper = np.array([np.inf] + [1.0] * len(detectors))
    result = least_squares(
        _relative_residuals,
        _initial_guess(*args),
        bounds=(lower, upper),
        args=args,
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    if not result.success:
        raise FitError(f"fit did not converge: {result.message}")
    a = float(result.x[0])
    dof = max(len(points) - len(result.x), 1)
    sigma2 = 2.0 * result.cost / dof
    jtj = result.jac.T @ result.jac
    covariance = sigma2 * np.linalg.pinv(jtj)
    return CalibrationFit(
        gain_scale=a,
        etas={det: float(e) for det, e in zip(detectors, result.x[1:])},
        repetition_rate=repetition_rate,
        g_max=a * float(sqrt_power.max()),
        covariance=covariance,
        residuals=result.fun.copy(),
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
