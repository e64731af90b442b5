import numpy as np
import pytest

from spdc_werner import _newton


def quadratic(center, curvature):
    """f = (x - c)' A (x - c) / 2 with its gradient and Hessian."""
    center, curvature = np.asarray(center, float), np.asarray(curvature, float)

    def evaluate(x):
        d = x - center
        return 0.5 * float(d @ curvature @ d), curvature @ d, curvature

    return evaluate


def rosenbrock(x):
    a, b = x
    value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    hess = np.array([[2 - 400 * (b - 3 * a * a), -400 * a], [-400 * a, 200.0]])
    return value, grad, hess


def gradient_below(tol):
    return lambda x, value, grad, hess: bool(np.max(np.abs(grad)) <= tol)


def no_projection(x):
    return x


def test_start_that_passes_the_test_takes_no_step():
    calls = []

    def evaluate(x):
        calls.append(x)
        return quadratic([1.0, 2.0], np.eye(2))(x)

    result = _newton.minimize(evaluate, np.array([1.0, 2.0]), no_projection,
                              gradient_below(1e-12), max_iter=10)
    assert (result.iterations, result.converged) == (0, True)
    assert len(calls) == 1


def test_quadratic_converges_to_its_center():
    curvature = np.array([[4.0, 1.0], [1.0, 3.0]])
    result = _newton.minimize(quadratic([0.3, -2.0], curvature), np.zeros(2),
                              no_projection, gradient_below(1e-12), max_iter=50)
    assert result.converged
    np.testing.assert_allclose(result.x, [0.3, -2.0], rtol=1e-12)


def test_indefinite_hessian_far_from_the_minimum():
    result = _newton.minimize(rosenbrock, np.array([-1.2, 1.0]), no_projection,
                              gradient_below(1e-10), max_iter=200)
    assert result.converged and result.message == "gradient within tolerance"
    np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=1e-9)


def test_projection_keeps_the_point_feasible():
    # the unconstrained minimum (2, 0.5) lies outside x0 <= 1; the test
    # ignores a gradient that pushes against the bound
    def converged(x, value, grad, hess):
        return bool(np.all((x >= 1.0) & (grad < 0) | (np.abs(grad) <= 1e-6)))

    result = _newton.minimize(quadratic([2.0, 0.5], np.eye(2)), np.zeros(2),
                              lambda x: np.minimum(x, 1.0), converged, max_iter=100)
    assert result.converged and result.message == "gradient within tolerance"
    assert result.x[0] == 1.0
    assert result.x[1] == pytest.approx(0.5, abs=1e-6)


def test_stops_where_the_objective_cannot_resolve_a_step():
    # with no gradient test the loop ends where f stops changing: x0 pinned
    # at the bound, and x1 within about sqrt(2**-52) of 0.5, where the
    # decrease left, (x1 - 0.5)^2 / 2, is below the rounding of f = 0.5
    result = _newton.minimize(quadratic([2.0, 0.5], np.eye(2)), np.zeros(2),
                              lambda x: np.minimum(x, 1.0), gradient_below(0.0),
                              max_iter=100)
    assert result.converged
    assert result.message == "no step lowers the objective beyond its rounding"
    assert result.x[0] == 1.0
    assert result.x[1] == pytest.approx(0.5, abs=1e-7)


def test_iteration_limit_is_not_converged():
    result = _newton.minimize(rosenbrock, np.array([-1.2, 1.0]), no_projection,
                              gradient_below(0.0), max_iter=3)
    assert (result.iterations, result.converged) == (3, False)
    assert result.message == "iteration limit 3 reached"
    assert result.value == rosenbrock(result.x)[0]


def test_relative_decrease_rule():
    def shifted(x):  # minimum value 1, so a relative decrease is defined
        value, grad, hess = rosenbrock(x)
        return value + 1.0, grad, hess

    result = _newton.minimize(shifted, np.array([-1.2, 1.0]), no_projection,
                              gradient_below(0.0), max_iter=200, ftol=1e-3)
    assert result.converged and result.message == "relative decrease below 0.001"
    assert result.iterations < 200
