"""Damped Newton minimization on the unit sphere, in numpy.

Maximum-likelihood tomography runs this loop over the Cholesky parameters
of its state, whose objective does not change when they are scaled. The
caller supplies it as ``evaluate(x) -> (f, g, hessian)``: its value,
gradient and a zero-argument callable that returns a symmetric Hessian,
regular on the sphere. The loop calls ``hessian`` only when it is about to
try a step, at most once per point: never where a stop test ends the search
before a step, and never at a trial point it rejects. Each iteration solves

    (H + lam * diag(d)) s = -g,    d_j = |H_jj|, floored at 1e-12 * max_j |H_jj|

(d_j = 1 for every j where that floor is 0, as it is when the diagonal
underflows) and tries x' = (x + s) / |x + s|, so every point it evaluates
lies on the unit sphere. The damped quadratic model predicts the decrease
-g's / 2. Where that prediction exceeds the rounding of f, taken as 64 ulps
of |f|, x' is accepted if f(x') < f(x); below it f cannot check the step,
and x' is accepted if its gradient is smaller (largest component). The
damping lam follows Nielsen's rule (Madsen, Nielsen & Tingleff, "Methods
for non-linear least squares problems", 2004): an accepted step divides it
by at most 3, by less when the decrease falls short of the prediction; a
rejected step, or a damped matrix that is not positive definite, multiplies
it by a factor that doubles with each rejection in a row. With the exact
Hessian the steps become full Newton steps near a non-degenerate minimum,
where convergence is quadratic.

Stop rules, in the order they are tested:

* The largest gradient component is at most ``gtol``, at the current
  point. It is tested before the first step, so a start that passes takes
  0 iterations.
* ``max_iter`` accepted steps: not converged.
* An accepted step lowered f by more than 0 and at most ``ftol * |f|``:
  converged.
* A step whose predicted decrease is below the rounding of f does not make
  the gradient smaller: neither f nor the gradient can improve on x, which
  is returned as converged. Rejections shrink the step and its prediction,
  so a run of them ends here.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# Relative rounding of an objective summed over tens of terms, 64 ulps.
_ROUNDING = 64 * np.finfo(float).eps
_INITIAL_DAMPING = 1e-3


class Minimum(NamedTuple):
    """Where the loop stopped: the point, its objective value, the number
    of accepted steps, and whether a stop rule other than the iteration
    cap ended it (``message`` says which)."""

    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    message: str


Hessian = Callable[[], np.ndarray]


def minimize(
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray, Hessian]],
    x: np.ndarray,
    gtol: float,
    ftol: float,
    max_iter: int,
) -> Minimum:
    """Minimize from ``x / |x|`` over the unit sphere; see the module docstring."""
    x = x / np.linalg.norm(x)
    f, g, hessian = evaluate(x)
    h = None  # the Hessian at x, once a step from x needs it
    lam, grow = _INITIAL_DAMPING, 2.0
    iterations = 0
    while True:
        if np.max(np.abs(g)) <= gtol:
            return Minimum(x, f, iterations, True, "gradient within tolerance")
        if iterations == max_iter:
            return Minimum(x, f, iterations, False,
                           f"iteration limit {max_iter} reached")
        if h is None:
            h = hessian()
        diag = np.abs(np.diag(h))
        # the floor underflows to 0 where the largest diagonal entry is below
        # about 2.5e-312; a zero scale would keep every damped matrix singular
        floor = 1e-12 * diag.max()
        scale = np.maximum(diag, floor) if floor > 0 else np.ones(len(x))
        damped = h + lam * np.diag(scale)
        try:
            np.linalg.cholesky(damped)
        except np.linalg.LinAlgError:
            lam, grow = lam * grow, 2.0 * grow
            continue
        step = np.linalg.solve(damped, -g)
        # the decrease of the damped quadratic model at its minimizer, the step
        predicted = -0.5 * (g @ step)
        trial = x + step
        x_new = trial / np.linalg.norm(trial)
        f_new, g_new, hessian_new = evaluate(x_new)
        # A predicted change below the rounding of f cannot be checked on f,
        # so the gradient decides: the step must make it smaller.
        if predicted > _ROUNDING * abs(f):
            accept = f_new < f
        elif np.max(np.abs(g_new)) < np.max(np.abs(g)):
            accept = True
        else:
            return Minimum(x, f, iterations, True,
                           "no step lowers the objective beyond its rounding")
        if accept:
            ratio = (f - f_new) / predicted
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            grow = 2.0
            small = 0 < f - f_new <= ftol * abs(f)
            x, f, g, hessian, h = x_new, f_new, g_new, hessian_new, None
            iterations += 1
            if small:
                return Minimum(x, f, iterations, True,
                               f"relative decrease below {ftol:g}")
        else:
            lam, grow = lam * grow, 2.0 * grow
