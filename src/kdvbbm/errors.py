"""Exception vocabulary shared across the package."""


class KdvBbmError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintError(KdvBbmError, ValueError):
    """A coefficient or parameter invariant failed."""

    def __init__(self, name, residual):
        self.name = name
        self.residual = residual
        super().__init__(f"constraint violated: {name} (residual {residual:.6e})")


class SymmetryError(KdvBbmError, ValueError):
    """A spectrum claimed to represent a real field is not Hermitian-symmetric."""


class NonFiniteError(KdvBbmError, FloatingPointError):
    """A NaN or infinity appeared in field data or an intermediate result."""


class NormOverflowError(KdvBbmError, OverflowError):
    """An exponential norm weight would overflow; sigma is too large for the grid."""


class NoConvergenceError(KdvBbmError, RuntimeError):
    """Fixed-point iteration did not converge within the allowed iterations."""


class QuadratureError(KdvBbmError, RuntimeError):
    """Refining the quadrature mesh moved the fixed point by more than the tolerance."""

    def __init__(self, delta, tol):
        self.delta = delta
        self.tol = tol
        super().__init__(
            f"mesh refinement changed the fixed point by {delta:.3e} (> tol {tol:.3e})"
        )


class BlowUpError(KdvBbmError, RuntimeError):
    """A tracked norm exceeded the configured ceiling during time stepping."""

    def __init__(self, t, value, ceiling):
        self.t = t
        self.value = value
        self.ceiling = ceiling
        super().__init__(f"norm {value:.3e} exceeded ceiling {ceiling:.3e} at t={t:.6g}")


class StepCollapseError(KdvBbmError, RuntimeError):
    """The tracked analyticity radius fell below the grid-resolvable threshold."""

    def __init__(self, t, sigma, threshold):
        self.t = t
        self.sigma = sigma
        self.threshold = threshold
        super().__init__(
            f"sigma collapsed to {sigma:.3e} (< resolvable {threshold:.3e}) at t={t:.6g}"
        )


class ConfigError(KdvBbmError, ValueError):
    """A run configuration is malformed or violates a module precondition."""
