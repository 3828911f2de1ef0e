import numpy as np
import pytest

import kdvbbm as kb
from kdvbbm.params import ABCDParams, CoefficientSet, derive_coefficients


def test_derive_example_exact():
    p = ABCDParams(
        a=1 / 12, b=1 / 12, c=1 / 12, d=1 / 12,
        a1=4 / 45, b1=1 / 20, c1=4 / 45, d1=1 / 20,
    )
    assert p.rho == pytest.approx(0.0, abs=1e-15)
    cs = derive_coefficients(p)
    assert cs.gamma1 == pytest.approx(1 / 12, abs=1e-15)
    assert cs.gamma2 == pytest.approx(1 / 12, abs=1e-15)
    assert cs.gamma == pytest.approx(7 / 48, abs=1e-15)
    assert cs.delta1 == pytest.approx(1 / 20, abs=1e-15)
    assert cs.delta2 == pytest.approx(4 / 45, abs=1e-15)


def _random_valid_abcd(rng):
    # free choice of a, b, d with c pinned by the sum constraint
    a, b, d = rng.uniform(-0.1, 0.3, size=3)
    c = 1.0 / 3.0 - a - b - d
    rho = b + d - 1.0 / 6.0
    b1, d1 = rng.uniform(0.1, 0.5, size=2)
    delta1 = 0.25 * (2 * (b1 + d1) - (b - d + rho) * (1 / 6 - a - d) - d * (c - a + rho))
    if delta1 <= 0:
        return None
    # a1 + c1 pinned by the delta relation (gamma1 = 1/12 is forced by rho)
    delta2 = delta1 + 7.0 / 180.0
    s_ac = 0.5 * (4 * delta2 + (c - a + rho) * (1 / 6 - a) - rho / 3)
    return ABCDParams(a=a, b=b, c=c, d=d, a1=s_ac / 2, b1=b1, c1=s_ac / 2, d1=d1)


def test_rho_convention_forces_hamiltonian_coefficients():
    rng = np.random.default_rng(42)
    produced = 0
    while produced < 50:
        p = _random_valid_abcd(rng)
        if p is None:
            continue
        cs = derive_coefficients(p)
        assert cs.gamma1 == pytest.approx(1 / 12, abs=1e-12)
        assert cs.gamma2 == pytest.approx(1 / 12, abs=1e-12)
        assert cs.gamma == pytest.approx(7 / 48, abs=1e-12)
        assert cs.is_hamiltonian
        produced += 1


def test_sum_constraint_violation_raises():
    with pytest.raises(kb.ConstraintError, match="a\\+b\\+c\\+d"):
        ABCDParams(a=0.1, b=0.1, c=0.1, d=0.1, a1=0, b1=0, c1=0, d1=0)


def test_explicit_rho_mismatch_raises():
    with pytest.raises(kb.ConstraintError, match="rho"):
        ABCDParams(a=1 / 12, b=1 / 12, c=1 / 12, d=1 / 12,
                   a1=0, b1=0, c1=0, d1=0, rho=0.25)


def test_derive_nonpositive_delta1_raises():
    # a1 + c1 meets the delta relation, so delta1 > 0 is the one invariant this set fails
    p = ABCDParams(a=1 / 12, b=1 / 12, c=1 / 12, d=1 / 12,
                   a1=-1 + 7 / 180, b1=-1.0, c1=-1 + 7 / 180, d1=-1.0)
    with pytest.raises(kb.ConstraintError) as info:
        derive_coefficients(p)
    assert info.value.name == "delta1 > 0"
    assert info.value.residual == pytest.approx(1.0, rel=1e-12)


def _consistent(gamma1=1 / 12, delta1=1 / 20, **moved):
    """The five coefficients tied by the three relations, then any entry moved."""
    values = dict(gamma1=gamma1, gamma2=1 / 6 - gamma1, delta1=delta1,
                  delta2=delta1 + 19 / 360 - gamma1 / 6, gamma=(5 - 18 * gamma1) / 24)
    return {**values, **moved}


def test_default_coefficients_construct():
    cs = kb.DEFAULT_COEFFICIENTS
    assert CoefficientSet(cs.gamma1, cs.gamma2, cs.delta1, cs.delta2, cs.gamma) == cs


@pytest.mark.parametrize(
    "values, invariant, residual",
    [
        (_consistent(gamma1=-0.1), "gamma1 > 0", 0.1),
        (_consistent(gamma1=0.0), "gamma1 > 0", 0.0),  # varphi needs gamma1 > 0, not >= 0
        (_consistent(delta1=-0.01), "delta1 > 0", 0.01),
        (_consistent(gamma2=1 / 12 + 1e-6), "gamma1 + gamma2 = 1/6", 1e-6),
        (_consistent(gamma=0.2), "gamma = (5 - 18*gamma1)/24", 0.2 - 7 / 48),
        (_consistent(delta2=4 / 45 + 1e-6), "delta2 - delta1 = 19/360 - gamma1/6", 1e-6),
    ],
)
def test_constructor_rejects_each_invariant(values, invariant, residual):
    with pytest.raises(kb.ConstraintError) as info:
        CoefficientSet(**values)
    assert info.value.name == invariant
    assert info.value.residual == pytest.approx(residual, rel=1e-9, abs=1e-15)
    assert str(info.value).startswith(f"constraint violated: {invariant} (residual ")


def test_constructor_names_the_largest_residual():
    with pytest.raises(kb.ConstraintError) as info:
        CoefficientSet(**_consistent(gamma2=1 / 12 + 1e-6, gamma=0.2))
    assert info.value.name == "gamma = (5 - 18*gamma1)/24"
    assert info.value.residual == pytest.approx(abs(0.2 - 7 / 48), abs=1e-15)


def test_relations_hold_to_arith_tol():
    CoefficientSet(**_consistent(gamma=7 / 48 + 1e-13))
    with pytest.raises(kb.ConstraintError):
        CoefficientSet(**_consistent(gamma=7 / 48 + 1e-11))


def test_min_max():
    cs = kb.DEFAULT_COEFFICIENTS
    assert cs.c_min == 1 / 20
    assert cs.c_max == 1 / 12


def test_non_hamiltonian_set_is_accepted_when_relations_hold():
    # gamma1 = 1/10 forces gamma = (5 - 1.8)/24 != 7/48; still a valid set
    g1 = 0.1
    cs = CoefficientSet(gamma1=g1, gamma2=1 / 6 - g1, delta1=0.05,
                        delta2=0.05 + 19 / 360 - g1 / 6, gamma=(5 - 18 * g1) / 24)
    assert not cs.is_hamiltonian

