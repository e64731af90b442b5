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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import least_squares

from . import _csv
from .errors import FitError
from .source import GainChannelParams

_MIN_DISTINCT_POWERS = 5


def count_rate_model(g: float, eta: float, repetition_rate: float) -> float:
    """Singles rate at gain g for a detector of efficiency eta.

    Monotone increasing in both g and eta; reduces to R * eta * tanh(g)^2
    for small gain and to R * tanh(g)^2 at eta = 1.
    """
    if g < 0:
        raise ValueError(f"gain must be non-negative, got {g}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"efficiency must lie in (0, 1], got {eta}")
    if repetition_rate <= 0:
        raise ValueError(f"repetition rate must be positive, got {repetition_rate}")
    g2 = math.tanh(g) ** 2
    return repetition_rate * eta * g2 / (1.0 - (1.0 - eta) * g2)


def transmitted_photons_per_mode(params: GainChannelParams) -> float:
    """eta * sinh(g)^2: mean photons per mode surviving the channel.

    The two-photon coincidence treatment assumes this is much less than 1;
    the CLI warns above 0.1.
    """
    return params.eta * params.n_bar


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


def _relative_residuals(params, points, repetition_rate, detectors):
    a = params[0]
    etas = dict(zip(detectors, params[1:]))
    res = np.empty(len(points))
    for i, pt in enumerate(points):
        model = count_rate_model(a * math.sqrt(pt.pump_power), etas[pt.detector],
                                 repetition_rate)
        res[i] = (model - pt.rate) / max(model, 1e-12)
    return res


def _initial_guess(points, repetition_rate, detectors):
    """Coarse grid over the gain scale, efficiency solved from the
    highest-power point of each detector."""
    p_max = max(pt.pump_power for pt in points)
    best = None
    for a in np.geomspace(0.05, 20.0, 60) / math.sqrt(p_max):
        guess = [a]
        for det in detectors:
            pts = [pt for pt in points if pt.detector == det]
            top = max(pts, key=lambda pt: pt.pump_power)
            g2 = math.tanh(a * math.sqrt(top.pump_power)) ** 2
            denom = g2 * max(repetition_rate - top.rate, 1e-9)
            eta = top.rate * (1.0 - g2) / denom if denom > 0 else 0.5
            guess.append(min(1.0, max(1e-9, eta)))
        sse = float(np.sum(_relative_residuals(guess, points, repetition_rate,
                                               detectors) ** 2))
        if best is None or sse < best[0]:
            best = (sse, guess)
    return np.array(best[1])


def fit_gain(points: Sequence[CalibrationPoint], repetition_rate: float) -> CalibrationFit:
    """Least-squares fit of (gain scale, efficiencies) to rate-power data.

    Requires at least 5 distinct powers per detector present in the data.
    Residuals are relative (rate noise is multiplicative). Raises
    ``FitError`` on non-convergence or efficiencies outside (0, 1].
    """
    if repetition_rate <= 0:
        raise ValueError(f"repetition rate must be positive, got {repetition_rate}")
    points = list(points)
    detectors = sorted({pt.detector for pt in points})
    if not detectors:
        raise FitError("no calibration points")
    for det in detectors:
        powers = {pt.pump_power for pt in points if pt.detector == det}
        if len(powers) < _MIN_DISTINCT_POWERS:
            raise FitError(
                f"detector {det} has {len(powers)} distinct powers; "
                f"need at least {_MIN_DISTINCT_POWERS}"
            )

    x0 = _initial_guess(points, repetition_rate, detectors)
    lower = np.array([1e-12] + [1e-12] * len(detectors))
    upper = np.array([np.inf] + [1.0] * len(detectors))
    result = least_squares(
        _relative_residuals,
        x0,
        bounds=(lower, upper),
        args=(points, repetition_rate, detectors),
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    if not result.success:
        raise FitError(f"fit did not converge: {result.message}")
    a = float(result.x[0])
    etas = {det: float(e) for det, e in zip(detectors, result.x[1:])}
    for det, eta in etas.items():
        if not 0.0 < eta <= 1.0:
            raise FitError(f"fitted efficiency for detector {det} is {eta}")

    dof = max(len(points) - len(result.x), 1)
    sigma2 = 2.0 * result.cost / dof
    jtj = result.jac.T @ result.jac
    covariance = sigma2 * np.linalg.pinv(jtj)
    g_max = a * math.sqrt(max(pt.pump_power for pt in points))
    return CalibrationFit(
        gain_scale=a,
        etas=etas,
        repetition_rate=repetition_rate,
        g_max=g_max,
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
    """Model-generated rate data with multiplicative Gaussian noise."""
    rng = np.random.default_rng(seed)
    points = []
    for det, eta in sorted(etas.items()):
        for power in powers:
            rate = count_rate_model(gain_scale * math.sqrt(power), eta, repetition_rate)
            if noise_fraction > 0.0:
                rate *= 1.0 + noise_fraction * rng.standard_normal()
            points.append(CalibrationPoint(power, max(rate, 0.0), det))
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
