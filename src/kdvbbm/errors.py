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
    """A norm weight or norm overflows: (sigma, s) or L too large for the grid, or the field too
    large; or an estimate's right-side norm is 0."""


class NoConvergenceError(KdvBbmError, RuntimeError):
    """Fixed-point iteration did not converge within the allowed iterations."""


class BlowUpError(KdvBbmError, RuntimeError):
    """A tracked norm exceeded the march's ceiling (dynamics.BLOWUP_FACTOR) during time stepping."""

    def __init__(self, t, value, ceiling):
        self.t = t
        self.value = value
        self.ceiling = ceiling
        super().__init__(f"norm {value:.3e} exceeded ceiling {ceiling:.3e} at t={t:.6g}")


class ConfigError(KdvBbmError, ValueError):
    """A run configuration is malformed or violates a module precondition."""
