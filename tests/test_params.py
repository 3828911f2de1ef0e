import numpy as np
import pytest

import kdvbbm as kb
from kdvbbm.params import ABCDParams, CoefficientSet, derive_coefficients, validate_coefficients


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
        assert validate_coefficients(cs).passed
        produced += 1


def test_sum_constraint_violation_raises():
    with pytest.raises(kb.ConstraintError, match="a\\+b\\+c\\+d"):
        ABCDParams(a=0.1, b=0.1, c=0.1, d=0.1, a1=0, b1=0, c1=0, d1=0)


def test_explicit_rho_mismatch_raises():
    with pytest.raises(kb.ConstraintError, match="rho"):
        ABCDParams(a=1 / 12, b=1 / 12, c=1 / 12, d=1 / 12,
                   a1=0, b1=0, c1=0, d1=0, rho=0.25)


def test_derive_nonpositive_delta1_raises():
    p = ABCDParams(a=1 / 12, b=1 / 12, c=1 / 12, d=1 / 12,
                   a1=4 / 45, b1=-1.0, c1=4 / 45, d1=-1.0)
    with pytest.raises(kb.ConstraintError, match="delta1"):
        derive_coefficients(p)


def test_validate_default_passes():
    report = validate_coefficients(kb.DEFAULT_COEFFICIENTS)
    assert report.passed
    assert all(c.residual <= 1e-15 for c in report.checks)


def test_validate_reports_negative_gamma1():
    bad = CoefficientSet(gamma1=-0.1, gamma2=1 / 6 + 0.1, delta1=1 / 20,
                         delta2=1 / 20 + 19 / 360 + 0.1 / 6, gamma=(5 + 1.8) / 24)
    report = validate_coefficients(bad)
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert "gamma1 > 0" in names


def test_validate_reports_gamma_relation_residual():
    bad = CoefficientSet(gamma1=1 / 12, gamma2=1 / 12, delta1=1 / 20, delta2=4 / 45, gamma=0.2)
    report = validate_coefficients(bad)
    assert not report.passed
    (fail,) = report.failures()
    assert fail.name == "gamma = (5 - 18*gamma1)/24"
    assert fail.residual == pytest.approx(abs(0.2 - 7 / 48), abs=1e-15)


def test_min_max_and_report():
    cs = kb.DEFAULT_COEFFICIENTS
    assert cs.c_min == 1 / 20
    assert cs.c_max == 1 / 12
    report = validate_coefficients(cs)
    assert report.passed is True
    assert len(report.checks) == 5


def test_non_hamiltonian_set_is_accepted_when_relations_hold():
    # gamma1 = 1/10 forces gamma = (5 - 1.8)/24 != 7/48; still a valid set
    g1 = 0.1
    cs = CoefficientSet(gamma1=g1, gamma2=1 / 6 - g1, delta1=0.05,
                        delta2=0.05 + 19 / 360 - g1 / 6, gamma=(5 - 18 * g1) / 24)
    assert validate_coefficients(cs).passed
    assert not cs.is_hamiltonian
