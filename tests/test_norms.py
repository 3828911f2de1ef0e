import inspect
import warnings

import numpy as np
import pytest

import kdvbbm as kb
from kdvbbm.norms import gevrey_weights, row_norms, row_squares
from draws import random_spectrum
from oracles import (
    fft_to_half,
    fft_wavenumbers,
    half_to_fft,
    inner_quadrature,
    l2_quadrature,
    synthesize,
)


def _cos_on_pi(amplitude=1.0):
    grid = kb.SpectralGrid(64, np.pi)
    return grid, kb.cos_mode(grid, 1, amplitude)


class TestSobolev:
    def test_zero(self, small_grid):
        z = kb.Spectrum(small_grid, np.zeros(33, complex))
        assert kb.sobolev_norm(z, 2.0) == 0.0

    def test_cos_closed_form(self):
        # cos x on [-pi, pi), s = 2: sqrt(2*pi * <1>^4 * (1/4 + 1/4)) = sqrt(16 pi)
        _, s = _cos_on_pi()
        assert kb.sobolev_norm(s, 2.0) == pytest.approx(np.sqrt(16 * np.pi), rel=1e-14)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_s0_matches_quadrature(self, grid, seed):
        u = random_spectrum(grid, "band_limited", seed)
        f = synthesize(half_to_fft(u.half))
        assert kb.sobolev_norm(u, 0.0) == pytest.approx(l2_quadrature(grid, f), rel=1e-10)


class TestGevrey:
    def test_sigma_zero_reduces_to_sobolev(self, grid):
        u = random_spectrum(grid, "band_limited", 3)
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
        u = random_spectrum(grid, "band_limited", 5)
        n1 = kb.gevrey_norm(u, kb.GevreyIndex(0.1, 2.0))
        n2 = kb.gevrey_norm(u, kb.GevreyIndex(0.2, 2.0))
        n3 = kb.gevrey_norm(u, kb.GevreyIndex(0.1, 3.0))
        assert n2 >= n1
        assert n3 >= n1

    def test_overflow_guard(self, grid):
        u = random_spectrum(grid, "band_limited", 6)
        with pytest.raises(kb.NormOverflowError):
            kb.gevrey_norm(u, kb.GevreyIndex(100.0, 2.0))

    def test_overflow_guard_polynomial_factor(self, grid):
        # <xi_max>^(2s) = 9^800 overflows at n = 256 although sigma is small
        u = random_spectrum(grid, "band_limited", 6)
        with pytest.raises(kb.NormOverflowError):
            kb.gevrey_norm(u, kb.GevreyIndex(0.1, 400.0))

    def test_overflowing_norm_of_a_finite_field(self, grid):
        # finite weights and coefficients whose weighted sum leaves double range
        u = kb.cos_mode(grid, 1, 1.0e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(kb.NormOverflowError, match="sigma = 0.1, s = 2.0 overflows"):
                kb.gevrey_norm(u, kb.GevreyIndex(0.1, 2.0))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            kb.GevreyIndex(-0.1, 2.0)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_sobolev_index_checked_by_its_constructor(self, grid, s):
        # a non-finite s is a bad index, not an overflow of this grid's weights
        u = random_spectrum(grid, "band_limited", 6)
        with pytest.raises(ValueError, match="s must be finite"):
            kb.sobolev_norm(u, s)

    def test_weights_take_an_index(self):
        # the GevreyIndex constructor is the one check of (sigma, s): the weights take the index
        assert list(inspect.signature(gevrey_weights).parameters) == ["grid", "g"]


def test_half_layout_norms_equal_full_layout(grid):
    # the unpaired mode carries Parseval factor 4: half layout holds half of c_{-n/2}
    c = half_to_fft(random_spectrum(grid, "polynomial_decay", 3, power=1.0).half)
    c[grid.nyquist] = -0.3
    br = 1.0 + np.abs(fft_wavenumbers(grid))
    for sigma, s in ((0.0, 0.0), (0.1, 2.0)):
        weights = br ** (2 * s) * np.exp(2 * sigma * br)
        full = np.sqrt(2.0 * grid.half_length * np.sum(weights * np.abs(c) ** 2))
        half = row_norms(grid, fft_to_half(c), gevrey_weights(grid, kb.GevreyIndex(sigma, s)))
        assert half == pytest.approx(full, rel=1e-14)


class TestEnergy:
    def test_zero(self, small_grid, coeffs):
        z = kb.Spectrum(small_grid, np.zeros(33, complex))
        assert kb.energy(z, coeffs) == 0.0

    def test_cos_closed_form(self, coeffs):
        # integral of cos^2 + gamma1 sin^2 + delta1 cos^2 over [-pi, pi)
        _, s = _cos_on_pi()
        assert kb.energy(s, coeffs) == pytest.approx(17 * np.pi / 15, rel=1e-14)

    def test_physical_quadrature_oracle(self, grid, coeffs):
        u = random_spectrum(grid, "band_limited", 8)
        c = half_to_fft(u.half)
        ik = 1j * fft_wavenumbers(grid)  # u is band-limited, so its unpaired mode -n/2 is 0
        eta, eta_x, eta_xx = (synthesize(c * ik**p) for p in range(3))
        oracle = (
            inner_quadrature(grid, eta, eta)
            + coeffs.gamma1 * inner_quadrature(grid, eta_x, eta_x)
            + coeffs.delta1 * inner_quadrature(grid, eta_xx, eta_xx)
        )
        assert kb.energy(u, coeffs) == pytest.approx(oracle, rel=1e-11)

    def test_dominates_l2(self, grid, coeffs):
        u = random_spectrum(grid, "band_limited", 9)
        l2_sq = 2.0 * grid.half_length * np.sum(np.abs(half_to_fft(u.half)) ** 2)
        assert kb.energy(u, coeffs) >= l2_sq

    def test_polynomial_weight_comparison(self, grid, coeffs):
        # energy/h2_poly lies between the extremes of varphi/(1+xi^2+xi^4)
        xi = grid.wavenumbers
        w = kb.evaluate_symbol("varphi", xi, coeffs) / (1 + xi**2 + xi**4)
        for seed in range(4):
            u = random_spectrum(grid, "band_limited", seed)
            ratio = kb.energy(u, coeffs) / kb.h2_polynomial_sq(u)
            assert w.min() - 1e-12 <= ratio <= w.max() + 1e-12
            assert ratio >= coeffs.c_min - 1e-12  # c_min bound is one-sided and universal


@pytest.mark.parametrize(
    "norm",
    [
        lambda u: kb.sobolev_norm(u, 2.0),
        lambda u: kb.energy(u, kb.DEFAULT_COEFFICIENTS),
        kb.h2_polynomial_sq,
    ],
    ids=["sobolev_norm", "energy", "h2_polynomial_sq"],
)
def test_every_norm_owns_its_overflow(grid, norm):
    # a finite field whose every norm leaves double range: each raises as gevrey_norm does,
    # with no overflow warning on the way
    u = kb.cos_mode(grid, 1, 1.0e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kb.NormOverflowError, match="overflows"):
            norm(u)


class TestRowSquares:
    """The package's one weighted Parseval sum, with and without a buffer for the squares."""

    def test_buffer_keeps_the_bits_on_a_stack(self, grid):
        rng = np.random.default_rng(8)
        shape = (9, grid.nyquist + 1)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = gevrey_weights(grid, kb.GevreyIndex(0.1, 2.0))
        out = np.empty(d.shape)
        kept = d.copy()
        assert row_squares(grid, d, w, out=out).tobytes() == row_squares(grid, d, w).tobytes()
        assert out.tobytes() == (w * (d.real**2 + d.imag**2)).tobytes()  # weighted in place
        assert d.tobytes() == kept.tobytes()
        # a strided view, as the mesh-refinement shift is
        view = d[::2]
        assert (
            row_squares(grid, view, w, out=np.empty(view.shape)).tobytes()
            == row_squares(grid, view.copy(), w).tobytes()
        )

    def test_one_weight_row(self, grid):
        # one spectrum against a table of weight rows is no input shape: numpy refuses it
        d = np.ones(grid.nyquist + 1, complex)
        with pytest.raises(ValueError, match="broadcast"):
            row_squares(grid, d, np.ones((3, grid.nyquist + 1)))
