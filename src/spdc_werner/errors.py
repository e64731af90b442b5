"""Exception types shared across the package."""


class CapacityError(ValueError):
    """Requested pair number exceeds the brute-force cap
    ``channel.BRUTE_FORCE_MAX_PAIRS``."""


class PhysicalityError(ValueError):
    """Matrix fails a density-matrix invariant (Hermiticity, positivity, trace)."""


class ConvergenceError(RuntimeError):
    """Iterative computation did not reach its tolerance.

    Carries a ``diagnostics`` dict (iteration counts, the final objective,
    optimizer messages) for error reporting.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class FitError(RuntimeError):
    """Calibration fit failed or produced out-of-range parameters."""


class DesignError(ValueError):
    """Measurement settings do not span the operator space."""
