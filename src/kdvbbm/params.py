"""Model coefficients of the fifth-order KdV-BBM equation and their constraints.

The evolution equation is parametrized by (gamma1, gamma2, delta1, delta2, gamma),
which derive from an eight-parameter family (a, b, c, d, a1, b1, c1, d1) of the
underlying two-way expansion.  All algebraic relations between them are enforced
to a fixed absolute tolerance; no discretization error is involved here.
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
    """Parameters of the underlying two-way expansion.

    rho is redundant (rho = b + d - 1/6) but stored explicitly because the
    coefficient formulas are written in terms of it; omit it to have it filled in.
    """

    a: float
    b: float
    c: float
    d: float
    a1: float
    b1: float
    c1: float
    d1: float
    rho: float | None = None

    def __post_init__(self):
        if self.rho is None:
            object.__setattr__(self, "rho", self.b + self.d - 1.0 / 6.0)
        _require("a+b+c+d = 1/3", (self.a + self.b + self.c + self.d) - 1.0 / 3.0)
        _require("rho = b+d-1/6", self.rho - (self.b + self.d - 1.0 / 6.0))


@dataclass(frozen=True)
class CoefficientSet:
    """The five model coefficients.

    May be constructed directly without going through ABCDParams; use
    validate_coefficients to confirm the algebraic relations hold.
    """

    gamma1: float
    gamma2: float
    delta1: float
    delta2: float
    gamma: float

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate_coefficients(coeffs: CoefficientSet) -> ValidationReport:
    """Report pass/fail and residual for every coefficient invariant."""
    eq = [
        ("gamma1 + gamma2 = 1/6", coeffs.gamma1 + coeffs.gamma2 - 1.0 / 6.0),
        ("gamma = (5 - 18*gamma1)/24", coeffs.gamma - (5.0 - 18.0 * coeffs.gamma1) / 24.0),
        (
            "delta2 - delta1 = 19/360 - gamma1/6",
            (coeffs.delta2 - coeffs.delta1) - (19.0 / 360.0 - coeffs.gamma1 / 6.0),
        ),
    ]
    checks = [
        CheckResult("gamma1 > 0", coeffs.gamma1 > 0.0, max(0.0, -coeffs.gamma1)),
        CheckResult("delta1 > 0", coeffs.delta1 > 0.0, max(0.0, -coeffs.delta1)),
    ]
    checks += [CheckResult(name, abs(res) <= ARITH_TOL, abs(res)) for name, res in eq]
    return ValidationReport(tuple(checks))


def derive_coefficients(p: ABCDParams) -> CoefficientSet:
    """Derive the model coefficients from the two-way expansion parameters.

    Raises ConstraintError when the inputs are inconsistent, i.e. when the
    derived set fails any coefficient invariant (including delta1 > 0).
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
    coeffs = CoefficientSet(gamma1, gamma2, delta1, delta2, gamma)
    report = validate_coefficients(coeffs)
    if not report.passed:
        worst = max(report.failures(), key=lambda c: c.residual)
        raise ConstraintError(worst.name, worst.residual)
    return coeffs
