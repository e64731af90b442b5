import numpy as np
import pytest

from spdc_werner import _newton

# a symmetric matrix with eigenvalues 1, 2, 4 and 7, rotated by a Householder
# reflection so that no eigenvector is a coordinate axis
_V = np.array([1.0, 2.0, 3.0, 4.0])
_REFLECTION = np.eye(4) - 2.0 * np.outer(_V, _V) / (_V @ _V)
CURVATURE = _REFLECTION @ np.diag([1.0, 2.0, 4.0, 7.0]) @ _REFLECTION


def rayleigh(curvature):
    """f = x'Ax / x'x with its gradient and Hessian callable. f does not change
    when x is scaled, as maximum likelihood's objective does not; its minimum
    on the unit sphere is A's smallest eigenvalue. The Hessian adds x x', as
    maximum likelihood's does, to make it regular along x."""
    curvature = np.asarray(curvature, float)
    identity = np.eye(len(curvature))

    def evaluate(x):
        norm = x @ x
        ax = curvature @ x
        value = float(x @ ax / norm)
        grad = 2.0 * (ax - value * x) / norm

        def hessian():
            return (2.0 * (curvature - value * identity)
                    - 2.0 * (np.outer(grad, x) + np.outer(x, grad))) / norm + np.outer(x, x)

        return value, grad, hessian

    return evaluate


def eigenvector(curvature, k):
    """Unit eigenvector of the k-th smallest eigenvalue."""
    return np.linalg.eigh(curvature)[1][:, k]


def on_sphere(x):
    x = np.asarray(x, float)
    return x / np.linalg.norm(x)


def recording(evaluate):
    """``evaluate`` that records each point it is called at in ``points``."""
    points = []

    def recorded(x):
        points.append(x.copy())
        return evaluate(x)

    return recorded, points


def test_start_that_passes_the_test_takes_no_step():
    evaluate, points = recording(rayleigh(CURVATURE))
    start = eigenvector(CURVATURE, 0)
    result = _newton.minimize(evaluate, start, gtol=1e-12, ftol=0.0, max_iter=10)
    assert (result.iterations, result.converged) == (0, True)
    assert result.message == "gradient within tolerance"
    assert len(points) == 1


def test_every_point_evaluated_lies_on_the_unit_sphere():
    # the start is scaled onto the sphere and every trial point normalized,
    # accepted or not
    evaluate, points = recording(rayleigh(CURVATURE))
    start = np.array([3.0, -1.0, 2.0, 0.5])
    _newton.minimize(evaluate, start, gtol=1e-10, ftol=0.0, max_iter=50)
    np.testing.assert_array_equal(points[0], start / np.linalg.norm(start))
    assert len(points) > 2
    np.testing.assert_allclose([p @ p for p in points], 1.0, rtol=1e-15)


def test_converges_to_the_smallest_eigenvector():
    result = _newton.minimize(rayleigh(CURVATURE), on_sphere([1.0, 1.0, 1.0, 1.0]),
                              gtol=1e-12, ftol=0.0, max_iter=50)
    assert result.converged and result.message == "gradient within tolerance"
    assert result.value == pytest.approx(1.0, rel=1e-14)
    assert abs(result.x @ eigenvector(CURVATURE, 0)) == pytest.approx(1.0, rel=1e-14)


def test_indefinite_hessian_far_from_the_minimum():
    # next to the largest eigenvector the Hessian 2 (A - f I) is negative
    # semidefinite: the damping grows until the damped matrix is positive
    # definite, and the search still reaches the minimum
    start = on_sphere(eigenvector(CURVATURE, 3) + 1e-3)
    assert np.linalg.eigvalsh(rayleigh(CURVATURE)(start)[2]()).min() < 0
    result = _newton.minimize(rayleigh(CURVATURE), start, gtol=1e-10, ftol=0.0,
                              max_iter=200)
    assert result.converged and result.message == "gradient within tolerance"
    assert result.value == pytest.approx(1.0, rel=1e-12)


def test_stops_where_the_objective_cannot_resolve_a_step():
    # with no gradient test and no relative-decrease test the loop ends where
    # neither f nor its gradient improves beyond rounding
    result = _newton.minimize(rayleigh(CURVATURE), on_sphere([1.0, 1.0, 1.0, 1.0]),
                              gtol=0.0, ftol=0.0, max_iter=100)
    assert result.converged
    assert result.message == "no step lowers the objective beyond its rounding"
    assert result.value == pytest.approx(1.0, rel=1e-14)


def test_iteration_limit_is_not_converged():
    evaluate = rayleigh(CURVATURE)
    result = _newton.minimize(evaluate, on_sphere([1.0, 1.0, 1.0, 1.0]),
                              gtol=0.0, ftol=0.0, max_iter=3)
    assert (result.iterations, result.converged) == (3, False)
    assert result.message == "iteration limit 3 reached"
    assert result.value == evaluate(result.x)[0]


def test_relative_decrease_rule():
    # the minimum value is 1, so a relative decrease is defined
    result = _newton.minimize(rayleigh(CURVATURE), on_sphere([1.0, 1.0, 1.0, 1.0]),
                              gtol=0.0, ftol=1e-3, max_iter=200)
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
    evaluate, calls = counting_hessians(rayleigh(CURVATURE))
    result = _newton.minimize(evaluate, eigenvector(CURVATURE, 0), gtol=1e-12, ftol=0.0,
                              max_iter=10)
    assert result.iterations == 0
    assert calls == []


def test_one_hessian_per_point_stepped_from():
    # from next to the largest eigenvector the search rejects steps on the
    # way; the Hessian is built once at each point the loop steps from, and
    # never at a rejected trial point or at the point where it stops
    recorded, trials = recording(rayleigh(CURVATURE))
    evaluate, calls = counting_hessians(recorded)
    result = _newton.minimize(evaluate, on_sphere(eigenvector(CURVATURE, 3) + 1e-3),
                              gtol=1e-10, ftol=0.0, max_iter=200)
    assert result.message == "gradient within tolerance"
    assert len(calls) == result.iterations
    assert len(trials) > result.iterations + 1  # some steps were rejected
    assert len({c.tobytes() for c in calls}) == len(calls)
    assert result.x.tobytes() not in {c.tobytes() for c in calls}


def test_no_hessian_at_the_iteration_limit():
    evaluate, calls = counting_hessians(rayleigh(CURVATURE))
    result = _newton.minimize(evaluate, on_sphere([1.0, 1.0, 1.0, 1.0]),
                              gtol=0.0, ftol=0.0, max_iter=3)
    assert result.iterations == 3
    assert len(calls) == 3


def quadratic_with_slope(slope, curvature):
    """f = s'x + x'Cx / 2, its gradient and the Hessian C as a callable."""

    def evaluate(x):
        value = float(slope @ x + 0.5 * x @ curvature @ x)
        return value, slope + curvature @ x, lambda: curvature

    return evaluate


# a diagonal of J'J that a least-squares fit met: 1e-12 times its largest
# entry underflows to 0, so scaling the damping by the diagonal would leave
# every damped matrix singular, until the damping reached inf and inf * 0
# warned
UNDERFLOWING = np.diag([0.0, 2.2e-314, 1.7e-314])


def test_unit_damping_scale_where_its_floor_underflows():
    assert 1e-12 * UNDERFLOWING.max() == 0.0
    start = on_sphere(np.ones(3))
    result = _newton.minimize(quadratic_with_slope(np.zeros(3), UNDERFLOWING), start,
                              gtol=0.0, ftol=0.0, max_iter=10)
    assert (result.iterations, result.converged) == (0, True)
    assert result.message == "no step lowers the objective beyond its rounding"
    np.testing.assert_array_equal(result.x, start)


def test_steps_where_the_damping_floor_underflows():
    # a linear slope over the underflowing diagonal: with the unit scale the
    # damped matrices are positive definite, so the search steps, toward the
    # point of the sphere the slope points away from
    slope = np.array([1.0, -1.0, 1.0])
    result = _newton.minimize(quadratic_with_slope(slope, UNDERFLOWING), on_sphere(np.ones(3)),
                              gtol=0.0, ftol=0.0, max_iter=100)
    assert result.converged
    assert result.iterations >= 1
    np.testing.assert_allclose(result.x, -on_sphere(slope), atol=1e-7)


def test_zero_hessian_damps_with_the_unit_scale():
    # f linear: the whole diagonal is 0, so the first trial point is the
    # step -g / lam with the initial damping 1e-3, normalized
    slope = np.array([1.0, -2.0])
    evaluate, trials = recording(quadratic_with_slope(slope, np.zeros((2, 2))))
    start = on_sphere([0.6, 0.8])
    _newton.minimize(evaluate, start, gtol=0.0, ftol=0.0, max_iter=1)
    np.testing.assert_allclose(trials[1], on_sphere(trials[0] - slope / 1e-3), rtol=1e-15)
