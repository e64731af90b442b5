"""Detector singles rates versus pump power, and the nonlinear-gain fit.

A detector on one spatial mode sees the rate

    N(g) = R * eta * tanh(g)^2 / (1 - (1 - eta) * tanh(g)^2)

with R the pump repetition rate and eta the overall detection efficiency of
that arm. The gain tracks the pump field amplitude, g = a * sqrt(P), so a
joint fit of (a, eta_1, eta_2) to rate-versus-power data calibrates the
source, reporting g_max at the highest power. No state model is used here.

The fit works in g_max = a * sqrt(P_max), which has no unit, so its result
does not depend on the unit of power. A point's relative residual is linear
in 1/eta, so at each g_max every efficiency has a closed-form least-squares
value (variable projection), and the fit is a one-dimensional search on
g_max over the cost with the efficiencies profiled out.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _csv
from .errors import FitError

_MIN_DISTINCT_POWERS = 5
# bisection alone narrows a grid step of _start_gains to rounding in 50
_SEARCH_STEPS = 50
# the upper bound of g_max: there the model at the top power equals R in
# double precision for every efficiency down to 1e-12, above every rate
_TOP_GAIN = 40.0
_EPS = np.finfo(float).eps


def count_rate_model(g, eta, repetition_rate: float) -> float | np.ndarray:
    """Singles rate at gain g for a detector of efficiency eta.

    g and eta broadcast as numpy arrays; scalar inputs give a float. Monotone
    increasing in both g and eta; reduces to R * eta * tanh(g)^2 for small
    gain and to R * tanh(g)^2 at eta = 1. eta must be a normal double: at a
    subnormal eta, exp(-2g) underflows to 0 while eta*sinh(g)^2 is still of
    order 1, and the rate would saturate at R too early. sech(g)^2 comes
    from exp(-2g), so that it neither overflows nor cancels at any gain, and
    1 - (1 - eta) tanh(g)^2 is written as eta tanh(g)^2 + sech(g)^2: no
    cancellation where tanh(g)^2 and 1 - eta round to 1.
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
    e = np.exp(-2.0 * g)
    g2 = np.tanh(g) ** 2
    rate = repetition_rate * eta * g2 / (eta * g2 + 4.0 * e / (1.0 + e) ** 2)
    return float(rate) if rate.ndim == 0 else rate


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


@functools.cache
def _start_gains() -> np.ndarray:
    """The start grid's values of g_max, read-only. Built on first use rather
    than at import: the first ``geomspace`` call pages in about 0.3 MB of
    numpy, which a process that never fits should not pay."""
    gains = np.geomspace(0.05, 20.0, 60)
    gains.setflags(write=False)
    return gains


class _ProfiledCost:
    """The least-squares cost as a function of g_max alone, each detector's
    efficiency at its best value for that g_max inside the fit's bounds
    1e-12 <= eta <= 1 (variable projection; Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413 (1973)).

    Where the model is positive a point's relative residual is r = b - c u,
    with b = 1 - rate/R, c = (rate/R) / sinh(g_max s)^2, s = sqrt(P / P_max)
    and u = 1/eta: linear in u. So u_d = sum b c / sum c^2 over detector d's
    points, held to the bounds, and the reduced cost is phi = sum r^2 at
    those u. Only ratios of c within a detector enter phi, so c is kept up
    to a constant factor per detector, as kappa (s / sinh(g_max s))^2 with
    kappa proportional to rate / s^2 and largest value 1: neither c nor c^2
    over- or underflows, whatever R and the range of powers. Points at zero
    power are left out; their residual does not depend on the parameters.
    Every other point must have a rate above 0, as ``fit_gain`` checks. The
    same r, c and u give the fit's residuals and Jacobian at its end.
    """

    def __init__(self, s, rate, detector_index, repetition_rate):
        self.n_points, self.rows = len(s), np.flatnonzero(s > 0)
        self.s, rate, index = s[self.rows], rate[self.rows], detector_index[self.rows]
        self.b = 1.0 - rate / repetition_rate
        self.onehot = (index[:, None] == np.arange(detector_index.max() + 1)).astype(float)
        log_kappa = np.log(rate) - 2.0 * np.log(self.s)
        top = np.array([log_kappa[index == d].max() for d in range(self.onehot.shape[1])])
        self.kappa = np.exp(log_kappa - top[index])
        # c in the units of r is kappa (s / sinh(g_max s))^2 times this, so
        # eta = 1 is u = unit and eta = 1e-12 is u = 1e12 unit
        with np.errstate(over="ignore"):
            self.unit = np.exp(top - math.log(repetition_rate))
            self.bounds = np.array([self.unit, 1e12 * self.unit])

    def _c(self, g):
        """x = g s and c at g_max = g, a float or a column of values with one
        row of results each."""
        x = g * self.s
        t = self.s / np.sinh(x)
        return x, self.kappa * t * t

    def __call__(self, g):
        """phi at each g_max in the 1-D array g."""
        _, c = self._c(g[:, None])
        u = np.clip(((self.b * c) @ self.onehot) / ((c * c) @ self.onehot), *self.bounds)
        r = self.b - (u @ self.onehot.T) * c
        return np.einsum("ij,ij->i", r, r)

    def derivatives(self, g: float) -> tuple[float, float, np.ndarray, np.ndarray]:
        """phi', phi'', and the unbounded optimum u and its u' per detector
        at g_max = g.

        With x = g s, w = c x coth(x) and q = 3 (x coth(x))^2 - x^2,
        c' = -2 c s coth(x) = -(2/g) w and c'' = 2 c s^2 (3 coth(x)^2 - 1)
        = (2/g^2) c q. phi' = -2 sum_d u sum r c' and phi'' = 2 sum_d
        (u^2 sum c'^2 - u sum r c'' - u'^2 sum c^2), where u' = (sum r c' -
        u sum c c') / sum c^2 with u at its optimum and u' = 0 with u held at
        a bound; either way the other terms of d phi / du vanish (the
        envelope theorem). Sums of r y are taken as sum b y - u sum c y.
        """
        x, c = self._c(g)
        h = x / np.tanh(x)  # x coth(x), 1 at x -> 0
        w = c * h
        # each detector's sums of c, w and c q times c, b and w, as floats:
        # per detector the rest is a few scalar operations
        sums = (np.array([c, w, c * (3.0 * h * h - x * x)])[:, None]
                * np.array([c, self.b, w])) @ self.onehot
        d1 = d2 = 0.0
        u, du = [], []
        for ((cc, bc, cw), (_, bw, ww), (ccq, bcq, _)), lo, hi in zip(
                sums.transpose(2, 0, 1).tolist(), *self.bounds.tolist()):
            ud = bc / cc
            dud = (bw - ud * cw - ud * cw) / cc  # u' = -(2/g) dud
            ub = min(max(ud, lo), hi)  # u inside the bounds
            rw = bw - ub * cw
            d1 += ub * rw
            d2 += ub * (2.0 * ub * ww - bcq + ub * ccq) - (
                2.0 * dud * dud * cc if ub == ud else 0.0)
            u.append(ud)
            du.append(dud)
        return (4.0 / g) * d1, (4.0 / g**2) * d2, np.array(u), (-2.0 / g) * np.array(du)

    def residuals_and_jacobian(self, g: float, etas: np.ndarray):
        """The relative residuals r = b - c u at g_max = g and these
        efficiencies, aligned with the input points and 0 at zero power, and
        their Jacobian times the parameters, J diag(g_max, eta): column 0 is
        g dr/dg = 2 u c x coth(x), from c' above, and column 1 + d is
        eta_d dr/deta_d = u c on detector d's points."""
        x, c = self._c(g)
        uc = ((self.unit / etas) @ self.onehot.T) * c
        residuals, jac = np.zeros(self.n_points), np.zeros((self.n_points, 1 + len(etas)))
        residuals[self.rows] = self.b - uc
        jac[self.rows, 0] = 2.0 * uc * (x / np.tanh(x))
        jac[self.rows, 1:] = self.onehot * uc[:, None]
        return residuals, jac

    def held(self, u: np.ndarray) -> np.ndarray:
        """Which detectors' optimum u lies past the bounds."""
        return (u < self.bounds[0]) | (u > self.bounds[1])

    def etas(self, u: np.ndarray) -> np.ndarray:
        """Each detector's efficiency 1/u_d, for u_d in the units of this
        scaling of c, clipped to the fit's bounds 1e-12 <= eta <= 1; u_d <= 0
        gives 1."""
        return np.clip(np.divide(self.unit, u, out=np.ones_like(u), where=u > 0),
                       1e-12, 1.0)


def _profiled_fit(profile: _ProfiledCost) -> np.ndarray:
    """(g_max, eta per detector) at the minimum of the profiled cost.

    phi is scored on the 60 values of ``_start_gains``. Where the best of
    them is the first or the last, the minimum may lie past the grid, which
    is scored again out to that side's bound, g_max = 1e-12 or
    ``_TOP_GAIN``, at about the same spacing. From the vertex of the
    parabola through the best value and its two neighbours, which saves one
    Newton step, a Newton search on phi' = 0 stays between those neighbours,
    and bisects where a Newton step would leave them or phi'' is not
    positive. It stops after a Newton step of at most 1e-8 g_max, which
    leaves an error of order its square where rounding in phi' allows, and
    moves each u by u' times that step, with an error of the same order. A
    best value on a bound stays there where phi rises away from it.
    """
    grid = _start_gains()
    phi = profile(grid)
    k = int(np.argmin(phi))
    if k in (0, len(grid) - 1):
        # 302 and 66 steps of about the grid's factor 1.107
        grid = (np.geomspace(1e-12, grid[-1], 303) if k == 0
                else np.geomspace(grid[0], _TOP_GAIN, 67))
        phi = profile(grid)
        k = int(np.argmin(phi))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    g = float(grid[k])
    if 0 < k < len(grid) - 1 and phi[k - 1] + phi[k + 1] > 2.0 * phi[k]:
        # the vertex of the parabola through the three values, inside (lo, hi)
        a, b = g - lo, hi - g
        f0, f2 = phi[k - 1] - phi[k], phi[k + 1] - phi[k]
        g += 0.5 * (b * b * f0 - a * a * f2) / (a * f2 + b * f0)
    for _ in range(_SEARCH_STEPS):
        d1, d2, u, du = profile.derivatives(g)
        if d1 > 0:
            hi = g
        elif d1 < 0:
            lo = g
        else:
            break
        newton = d2 > 0 and lo < g - d1 / d2 < hi
        step = -d1 / d2 if newton else 0.5 * (lo + hi) - g
        g += step
        last, u = u, u + du * step
        # phi'' jumps where an efficiency reaches its bound, so a Newton step
        # across one says nothing of convergence
        if (newton and abs(step) <= 1e-8 * g
                and np.array_equal(profile.held(last), profile.held(u)) or step == 0.0):
            break
    return np.concatenate([[g], profile.etas(u)])


def _reject_first(points: Sequence[CalibrationPoint], bad: np.ndarray,
                  problem: Callable[[CalibrationPoint, int], str]) -> None:
    """Raise ``FitError`` at the first point i where bad holds: the message
    names the point and goes on with problem(points[i], i)."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        i = flagged[0]
        pt = points[i]
        raise FitError(f"point {i + 1} (power {pt.pump_power}, detector {pt.detector}) "
                       + problem(pt, i))


def fit_gain(points: Sequence[CalibrationPoint], repetition_rate: float) -> CalibrationFit:
    """Least-squares fit of (gain scale, efficiencies) to rate-power data.

    Requires at least 5 distinct powers per detector present in the data
    and every rate below the repetition rate, where the model saturates. A
    point at zero power must have rate 0, which the model gives there
    whatever the parameters; its residual is 0. A point at a positive power
    must have a rate above 0: there the model is, so a rate of 0 has the
    relative residual 1 whatever the parameters and only inflates the
    covariance. No rate may exceed the most the model gives at its power,
    R * tanh(40 s)^2 with s = sqrt(P / P_max), at efficiency 1 and g_max on
    its upper bound: no parameter could bring its relative residual near 0.
    Residuals are relative (rate noise is multiplicative).

    The parameters are g_max = a * sqrt(P_max) and the efficiencies, inside
    the bounds 1e-12 <= g_max <= ``_TOP_GAIN`` and 1e-12 <= eta <= 1. The
    fit is the least-squares minimum from ``_profiled_fit``: each efficiency
    in closed form at every g_max, and a Newton search on g_max alone. The
    residuals and their analytic Jacobian J come from the same profiled
    cost, once, at its minimum: the residuals are those whose sum of squares
    the search minimized. A J of rank below the number of parameters raises
    ``FitError``: the data do not determine them. This is tested first,
    because such data leave the search at its first grid point. So does a
    fit that ends with g_max or an efficiency on the 1e-12 bound, which only
    keeps the model defined, with g_max on ``_TOP_GAIN``, or with an
    efficiency at 1 and the cost pushing it further: the data ask for a
    value the model cannot take, and no covariance means anything there.
    Last, a standard error of g_max above g_max itself raises ``FitError``:
    the data then do not determine the gain.

    On criterion 7's 50 sets and the bundled demo data the parameters come
    out within about 2e-14 relative of the minimum (against Gauss-Newton
    iterated in long double), and every column of J is within 1e-12 of
    orthogonal to the residuals there (MINPACK's gtol test). On noiseless
    data, where the cost's minimum is 0 and flatter the lower the gain, the
    benchmark's powers and efficiencies come back within about 2e-15
    relative at g_max = 1.313, 2e-12 at 0.3, 6e-10 at 0.05 and 7e-7 at
    0.01. Scaling every power by 1e-300 to 1e300 moves g_max and the
    efficiencies by at most about 3e-14 relative. The covariance comes from
    the singular value decomposition of J, and is reported for (a, eta) with
    a = g_max / sqrt(P_max).
    """
    if not 0 < repetition_rate < math.inf:
        raise ValueError(f"repetition rate must be in (0, inf), got {repetition_rate}")
    points = list(points)
    detectors = sorted({pt.detector for pt in points})
    if not detectors:
        raise FitError("no calibration points")
    power = np.array([pt.pump_power for pt in points])
    rate = np.array([pt.rate for pt in points])
    _reject_first(points, rate >= repetition_rate, lambda pt, i: (
        f"has rate {pt.rate} at or above the repetition rate {repetition_rate}, "
        "which the model never reaches"))
    _reject_first(points, (power == 0) & (rate > 0), lambda pt, i: (
        f"has rate {pt.rate} > 0, but the model gives 0 at zero power"))
    _reject_first(points, (power > 0) & (rate == 0), lambda pt, i: (
        "has rate 0 at a positive power, but the model gives more than 0 there"))
    detector_index = np.searchsorted(detectors, [pt.detector for pt in points])
    for i, det in enumerate(detectors):
        mine = detector_index == i
        n_powers = len(set(power[mine].tolist()))
        if n_powers < _MIN_DISTINCT_POWERS:
            raise FitError(
                f"detector {det} has {n_powers} distinct powers; "
                f"need at least {_MIN_DISTINCT_POWERS}"
            )

    sqrt_top = float(np.sqrt(power.max()))
    s = np.sqrt(power) / sqrt_top
    # the most the model gives at each power: efficiency 1 and g_max on its
    # bound. Inside the bounds a rate above it keeps a relative residual of at
    # least (rate - ceiling) / ceiling in size, whose square can overflow.
    ceiling = repetition_rate * np.tanh(_TOP_GAIN * s) ** 2
    _reject_first(points, rate > ceiling, lambda pt, i: (
        f"has rate {pt.rate} above the most the model gives at that power, "
        f"{ceiling[i]:g} (efficiency 1, g_max = {_TOP_GAIN:g})"))
    profile = _ProfiledCost(s, rate, detector_index, repetition_rate)
    x = _profiled_fit(profile)
    residuals, jac = profile.residuals_and_jacobian(x[0], x[1:])
    # Column j of jac = J diag(x) is the change of the residuals per relative
    # change of parameter j. Singular values at or below rounding of residuals
    # of order one, or of the largest one, leave a direction the data cannot
    # see. Tested first: where the residuals do not depend on the parameters,
    # the search stops at its first grid point, and a bound there says nothing.
    _, singular, vt = np.linalg.svd(jac, full_matrices=False)
    rank = int(np.sum(singular > len(rate) * _EPS * max(singular[0], 1.0)))
    if rank < len(x):
        raise FitError(
            f"the data do not determine the parameters: the Jacobian at the fit "
            f"has rank {rank} < {len(x)}"
        )
    # A parameter is held on 1e-12 and g_max on _TOP_GAIN; an efficiency at 1
    # is where the cost pushes it outward: a Newton step in that efficiency
    # alone, -grad_j / jtj_jj, passes 1 by more than 1e-10, well above the
    # fit's 2e-14 precision; on noiseless data at eta = 1 it is about 1e-16.
    # At eta = 1 the columns of J and J diag(x) are the same numbers.
    grad, jtj = residuals @ jac, np.sum(jac * jac, axis=0)
    held = (x <= 1e-12) | ((x >= 1.0) & (-grad > 1e-10 * jtj))
    held[0] = not 1e-12 < x[0] < _TOP_GAIN
    if held.any():
        names = ["g_max"] + [f"efficiency {det}" for det in detectors]
        raise FitError("the fit ends on a parameter bound, where the data ask for a "
                       "value the model cannot take: " + ", ".join(
                           f"{names[i]} = {x[i]:g}" for i in np.flatnonzero(held)))
    g_max = float(x[0])
    dof = max(len(points) - len(x), 1)
    # With J X = U S V', X = diag(x), (J'J)^-1 = X V S^-2 V' X: taken from the
    # SVD, as inverting J'J squares J's condition number. The gain scale is
    # a = g_max / sqrt(P_max), so the row of g_max is scaled to it.
    spread = vt.T / singular * x[:, None]
    spread[0] /= sqrt_top
    covariance = float(residuals @ residuals) / dof * (spread @ spread.T)
    # at 1% noise this ratio stays near 0.01; above 1 the data leave the gain open
    relative_error = math.sqrt(covariance[0, 0]) / (g_max / sqrt_top)
    if not relative_error <= 1.0:
        raise FitError(f"the data do not determine the gain: the standard error of "
                       f"g_max is {relative_error:.3g} times g_max = {g_max:g}")
    return CalibrationFit(
        gain_scale=g_max / sqrt_top,
        etas={det: float(e) for det, e in zip(detectors, x[1:])},
        repetition_rate=repetition_rate,
        g_max=g_max,
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

    ``gain_scale``, every power and ``noise_fraction``, the noise's standard
    deviation relative to the rate, must be finite and non-negative. The
    noise is not clipped: a draw that takes a rate below 0, which needs a
    deviate below -1 / ``noise_fraction``, raises :class:`CalibrationPoint`'s
    ``ValueError``. At the 1% noise of the tests that is 100 standard
    deviations out.
    """
    if not 0.0 <= gain_scale < math.inf:
        raise ValueError(f"gain scale must be finite and non-negative, got {gain_scale}")
    for power in powers:
        if not 0.0 <= power < math.inf:
            raise ValueError(f"pump power must be finite and non-negative, got {power}")
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
        points += [CalibrationPoint(power, float(r), det)
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
