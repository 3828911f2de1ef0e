import numpy as np
import pytest

import kdvbbm as kb
from oracles import inner_quadrature, l2_quadrature


def _cos_on_pi(amplitude=1.0):
    grid = kb.SpectralGrid(64, np.pi)
    return grid, kb.cos_mode(grid, 1, amplitude)


class TestSobolev:
    def test_zero(self, small_grid):
        z = kb.Spectrum(small_grid, np.zeros(64, complex))
        assert kb.sobolev_norm(z, 2.0) == 0.0

    def test_cos_closed_form(self):
        # cos x on [-pi, pi), s = 2: sqrt(2*pi * <1>^4 * (1/4 + 1/4)) = sqrt(16 pi)
        _, s = _cos_on_pi()
        assert kb.sobolev_norm(s, 2.0) == pytest.approx(np.sqrt(16 * np.pi), rel=1e-14)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_s0_matches_quadrature(self, grid, seed):
        u = kb.random_field(grid, "band_limited", seed)
        f = kb.transform_inverse(u)
        assert kb.sobolev_norm(u, 0.0) == pytest.approx(
            l2_quadrature(grid, f.samples), rel=1e-10
        )


class TestGevrey:
    def test_sigma_zero_reduces_to_sobolev(self, grid):
        u = kb.random_field(grid, "band_limited", 3)
        for s in (0.0, 1.0, 2.5):
            assert kb.gevrey_norm(u, kb.GevreyIndex(0.0, s)) == pytest.approx(
                kb.sobolev_norm(u, s), rel=1e-14
            )

    def test_cos_closed_form(self):
        # 2L*<1>^4*e^{2*sigma*<1>}*(1/4+1/4) with L=pi, sigma=0.1 -> 16 pi e^{0.4}
        _, s = _cos_on_pi()
        expected = np.sqrt(16 * np.pi * np.exp(0.4))
        assert kb.gevrey_norm(s, kb.GevreyIndex(0.1, 2.0)) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_sigma_and_s(self, grid):
        u = kb.random_field(grid, "band_limited", 5)
        n1 = kb.gevrey_norm(u, kb.GevreyIndex(0.1, 2.0))
        n2 = kb.gevrey_norm(u, kb.GevreyIndex(0.2, 2.0))
        n3 = kb.gevrey_norm(u, kb.GevreyIndex(0.1, 3.0))
        assert n2 >= n1
        assert n3 >= n1

    def test_overflow_guard(self, grid):
        u = kb.random_field(grid, "band_limited", 6)
        with pytest.raises(kb.NormOverflowError):
            kb.gevrey_norm(u, kb.GevreyIndex(100.0, 2.0))

    def test_overflow_guard_polynomial_factor(self, grid):
        # <xi_max>^(2s) = 9^800 overflows at n = 256 although sigma is small
        u = kb.random_field(grid, "band_limited", 6)
        with pytest.raises(kb.NormOverflowError):
            kb.gevrey_norm(u, kb.GevreyIndex(0.1, 400.0))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            kb.GevreyIndex(-0.1, 2.0)


class TestEnergy:
    def test_zero(self, small_grid, coeffs):
        z = kb.Spectrum(small_grid, np.zeros(64, complex))
        assert kb.energy(z, coeffs) == 0.0

    def test_cos_closed_form(self, coeffs):
        # integral of cos^2 + gamma1 sin^2 + delta1 cos^2 over [-pi, pi)
        _, s = _cos_on_pi()
        assert kb.energy(s, coeffs) == pytest.approx(17 * np.pi / 15, rel=1e-14)

    def test_physical_quadrature_oracle(self, grid, coeffs):
        u = kb.random_field(grid, "band_limited", 8)
        ik = 1j * grid.wavenumbers  # u is band-limited, so its unpaired mode -n/2 is 0
        eta = kb.transform_inverse(u).samples
        eta_x = kb.transform_inverse(kb.Spectrum(grid, ik * u.coeffs)).samples
        eta_xx = kb.transform_inverse(kb.Spectrum(grid, ik * ik * u.coeffs)).samples
        oracle = (
            inner_quadrature(grid, eta, eta)
            + coeffs.gamma1 * inner_quadrature(grid, eta_x, eta_x)
            + coeffs.delta1 * inner_quadrature(grid, eta_xx, eta_xx)
        )
        assert kb.energy(u, coeffs) == pytest.approx(oracle, rel=1e-11)

    def test_dominates_l2(self, grid, coeffs):
        u = kb.random_field(grid, "band_limited", 9)
        l2_sq = 2.0 * grid.half_length * np.sum(np.abs(u.coeffs) ** 2)
        assert kb.energy(u, coeffs) >= l2_sq

    def test_polynomial_weight_comparison(self, grid, coeffs):
        # energy/h2_poly lies between the extremes of varphi/(1+xi^2+xi^4)
        xi = grid.wavenumbers
        w = kb.evaluate_symbol("varphi", xi, coeffs) / (1 + xi**2 + xi**4)
        for seed in range(4):
            u = kb.random_field(grid, "band_limited", seed)
            ratio = kb.energy(u, coeffs) / kb.h2_polynomial_sq(u)
            assert w.min() - 1e-12 <= ratio <= w.max() + 1e-12
            assert ratio >= coeffs.c_min - 1e-12  # c_min bound is one-sided and universal
