import numpy as np
import pytest

from spdc_werner import _newton


def quadratic(center, curvature):
    """f = (x - c)' A (x - c) / 2 with its gradient and Hessian callable."""
    center, curvature = np.asarray(center, float), np.asarray(curvature, float)

    def evaluate(x):
        d = x - center
        return 0.5 * float(d @ curvature @ d), curvature @ d, lambda: curvature

    return evaluate


def rosenbrock(x):
    a, b = x
    value = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    grad = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    hess = np.array([[2 - 400 * (b - 3 * a * a), -400 * a], [-400 * a, 200.0]])
    return value, grad, lambda: hess


def gradient_below(tol):
    return lambda x, value, grad, hessian: bool(np.max(np.abs(grad)) <= tol)


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
    def converged(x, value, grad, hessian):
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
        value, grad, hessian = rosenbrock(x)
        return value + 1.0, grad, hessian

    result = _newton.minimize(shifted, np.array([-1.2, 1.0]), no_projection,
                              gradient_below(0.0), max_iter=200, ftol=1e-3)
    assert result.converged and result.message == "relative decrease below 0.001"
    assert result.iterations < 200


def counting_hessians(evaluate):
    """``evaluate`` whose Hessian callables record each call in ``calls``."""
    calls = []

    def counted(x):
        value, grad, hessian = evaluate(x)

        def recorded():
            calls.append(x.copy())
            return hessian()

        return value, grad, recorded

    return counted, calls


def test_no_hessian_where_the_start_passes():
    evaluate, calls = counting_hessians(quadratic([1.0, 2.0], np.eye(2)))
    result = _newton.minimize(evaluate, np.array([1.0, 2.0]), no_projection,
                              gradient_below(1e-12), max_iter=10)
    assert result.iterations == 0
    assert calls == []


def test_one_hessian_per_point_stepped_from():
    # rosenbrock from the usual start rejects steps on the way; the Hessian
    # is built once at each point the loop steps from, and never at a
    # rejected trial point or at the point where it stops
    trials = []

    def recorded(x):
        trials.append(x.copy())
        return rosenbrock(x)

    evaluate, calls = counting_hessians(recorded)
    result = _newton.minimize(evaluate, np.array([-1.2, 1.0]), no_projection,
                              gradient_below(1e-10), max_iter=200)
    assert result.message == "gradient within tolerance"
    assert len(calls) == result.iterations
    assert len(trials) > result.iterations + 1  # some steps were rejected
    assert len({c.tobytes() for c in calls}) == len(calls)
    assert result.x.tobytes() not in {c.tobytes() for c in calls}


def test_no_hessian_at_the_iteration_limit():
    evaluate, calls = counting_hessians(rosenbrock)
    result = _newton.minimize(evaluate, np.array([-1.2, 1.0]), no_projection,
                              gradient_below(0.0), max_iter=3)
    assert result.iterations == 3
    assert len(calls) == 3


def test_unit_damping_scale_where_its_floor_underflows():
    # the diagonal of J'J that the calibration fit met at a repetition rate
    # of 1e185, when it ran this loop: 1e-12 times its largest entry
    # underflows to 0, so scaling the damping by the diagonal would leave
    # every damped matrix singular, until the damping reached inf and inf * 0
    # warned
    curvature = np.diag([0.0, 2.2e-314, 1.7e-314])
    assert 1e-12 * curvature.max() == 0.0
    result = _newton.minimize(quadratic(np.zeros(3), curvature), np.ones(3),
                              no_projection, gradient_below(0.0), max_iter=10)
    assert (result.iterations, result.converged) == (0, True)
    assert result.message == "no step lowers the objective beyond its rounding"
    np.testing.assert_array_equal(result.x, np.ones(3))


def test_zero_hessian_damps_with_the_unit_scale():
    # f linear: the whole diagonal is 0, so the first trial step is -g / lam
    # with the initial damping 1e-3
    slope = np.array([1.0, -2.0])
    trials = []

    def evaluate(x):
        trials.append(x.copy())
        return float(slope @ x), slope.copy(), lambda: np.zeros((2, 2))

    _newton.minimize(evaluate, np.zeros(2), no_projection, gradient_below(0.0),
                     max_iter=1)
    np.testing.assert_allclose(trials[1], -slope / 1e-3, rtol=1e-15)


def test_steps_where_the_damping_floor_underflows():
    # a linear slope over the underflowing diagonal of J'J, inside the box
    # [0, 1]^3: with the unit scale the damped matrices are positive
    # definite, so the search steps to the corner the slope points at
    curvature = np.diag([0.0, 2.2e-314, 1.7e-314])
    slope = np.array([1.0, -1.0, 1.0])

    def evaluate(x):
        value = float(slope @ x + 0.5 * x @ curvature @ x)
        return value, slope + curvature @ x, lambda: curvature

    def converged(x, value, grad, hessian):
        # a gradient that pushes against a bound counts as stationary
        return bool(np.all((x <= 0.0) & (grad > 0) | (x >= 1.0) & (grad < 0)))

    result = _newton.minimize(evaluate, np.full(3, 0.5), lambda x: np.clip(x, 0.0, 1.0),
                              converged, max_iter=10)
    assert result.converged and result.message == "gradient within tolerance"
    assert result.iterations >= 1
    np.testing.assert_array_equal(result.x, [0.0, 1.0, 0.0])
