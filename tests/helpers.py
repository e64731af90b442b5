"""Helpers shared by several test modules."""

from spdc_werner.fock import DensityMatrix


def random_density(rng):
    """A full-rank two-qubit state with random complex coherences."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def counting_hessians(evaluate, calls):
    """``evaluate`` whose Hessian callables append their point to ``calls``
    each time they are called."""
    def counted(x):
        value, grad, hessian = evaluate(x)

        def recorded():
            calls.append(x.copy())
            return hessian()

        return value, grad, recorded

    return counted
