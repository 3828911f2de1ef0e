"""Model coefficients of the fifth-order KdV-BBM equation and their constraints.

The evolution equation is parametrized by (gamma1, gamma2, delta1, delta2, gamma),
which derive from an eight-parameter family (a, b, c, d, a1, b1, c1, d1) of the
underlying two-way expansion.  Each class checks its own invariants when it is
constructed, the algebraic relations to a fixed absolute tolerance; no
discretization error is involved here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstraintError

ARITH_TOL = 1e-12


def _require(name: str, residual: float) -> None:
    if abs(residual) > ARITH_TOL:
        raise ConstraintError(name, residual)


@dataclass(frozen=True)
class ABCDParams:
    """Parameters of the underlying two-way expansion; rho = b + d - 1/6, in whose terms the
    coefficient formulas are written, is worked out from them."""

    a: float
    b: float
    c: float
    d: float
    a1: float
    b1: float
    c1: float
    d1: float

    def __post_init__(self):
        _require("a+b+c+d = 1/3", (self.a + self.b + self.c + self.d) - 1.0 / 3.0)

    @property
    def rho(self) -> float:
        return self.b + self.d - 1.0 / 6.0


@dataclass(frozen=True)
class CoefficientSet:
    """The five model coefficients, checked when constructed.

    The constructor is the package's coefficient gate: gamma1 > 0 and delta1 > 0 keep
    the BBM symbol varphi positive, and the three relations of the derivation hold to
    ARITH_TOL.  A set failing any of them raises ConstraintError naming the failing
    invariant with the largest residual.
    """

    gamma1: float
    gamma2: float
    delta1: float
    delta2: float
    gamma: float

    def __post_init__(self):
        positive = {"gamma1 > 0": self.gamma1, "delta1 > 0": self.delta1}
        relations = {
            "gamma1 + gamma2 = 1/6": self.gamma1 + self.gamma2 - 1.0 / 6.0,
            "gamma = (5 - 18*gamma1)/24": self.gamma - (5.0 - 18.0 * self.gamma1) / 24.0,
            "delta2 - delta1 = 19/360 - gamma1/6": (
                (self.delta2 - self.delta1) - (19.0 / 360.0 - self.gamma1 / 6.0)
            ),
        }
        failures = [(name, max(0.0, -x)) for name, x in positive.items() if not x > 0.0]
        failures += [(name, abs(r)) for name, r in relations.items() if not abs(r) <= ARITH_TOL]
        if failures:
            raise ConstraintError(*max(failures, key=lambda f: f[1]))

    @property
    def c_min(self) -> float:
        return min(self.gamma1, self.delta1)

    @property
    def c_max(self) -> float:
        return max(self.gamma1, self.delta1)

    @property
    def is_hamiltonian(self) -> bool:
        """True when gamma = 7/48, the case with a conserved quadratic energy."""
        return abs(self.gamma - 7.0 / 48.0) <= ARITH_TOL


#: Default coefficients used throughout tests and example runs.  The rho
#: convention pins gamma1 = gamma2 = 1/12 and gamma = 7/48 (Hamiltonian case);
#: delta1 = 1/20 is an arbitrary positive choice and delta2 then follows.
DEFAULT_COEFFICIENTS = CoefficientSet(
    gamma1=1.0 / 12.0,
    gamma2=1.0 / 12.0,
    delta1=1.0 / 20.0,
    delta2=4.0 / 45.0,
    gamma=7.0 / 48.0,
)


def derive_coefficients(p: ABCDParams) -> CoefficientSet:
    """Derive the model coefficients from the two-way expansion parameters.

    Raises ConstraintError, from the CoefficientSet constructor, when the inputs are
    inconsistent, i.e. when the derived set fails any coefficient invariant.
    """
    rho = p.rho
    gamma1 = 0.5 * (p.b + p.d - rho)
    gamma2 = 0.5 * (p.a + p.c + rho)
    delta1 = 0.25 * (
        2.0 * (p.b1 + p.d1)
        - (p.b - p.d + rho) * (1.0 / 6.0 - p.a - p.d)
        - p.d * (p.c - p.a + rho)
    )
    delta2 = 0.25 * (
        2.0 * (p.a1 + p.c1) - (p.c - p.a + rho) * (1.0 / 6.0 - p.a) + rho / 3.0
    )
    gamma = (5.0 - 9.0 * (p.b + p.d) + 9.0 * rho) / 24.0
    return CoefficientSet(gamma1, gamma2, delta1, delta2, gamma)
