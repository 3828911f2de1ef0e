import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdvbbm as kb
from kdvbbm.dynamics import _half_symbols
from kdvbbm.spectral import full_spectrum, half_spectrum, product_spectra, symbol_on_grid
from oracles import convolve_project, l2_quadrature


def _random_real_field(grid, seed):
    rng = np.random.default_rng(seed)
    return kb.RealField(grid, rng.standard_normal(grid.n_modes))


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            kb.SpectralGrid(96, np.pi)

    def test_rejects_bad_half_length(self):
        with pytest.raises(ValueError):
            kb.SpectralGrid(64, -1.0)

    def test_mode_layout(self, small_grid):
        assert small_grid.modes[0] == 0
        assert small_grid.modes[31] == 31
        assert small_grid.modes[32] == -32
        assert small_grid.modes[-1] == -1
        assert small_grid.nyquist == 32
        # symmetric about zero except the unpaired -n/2
        assert set(small_grid.modes) == set(range(-32, 32))

    def test_wavenumbers(self, small_grid):
        assert small_grid.wavenumbers[1] == pytest.approx(1.0)
        assert small_grid.wavenumbers[-1] == pytest.approx(-1.0)


class TestTransforms:
    def test_cos_single_mode(self, small_grid):
        f = kb.RealField(small_grid, np.cos(small_grid.x))
        s = kb.transform_forward(f)
        assert s.coeffs[1] == pytest.approx(0.5, abs=1e-14)
        assert s.coeffs[-1] == pytest.approx(0.5, abs=1e-14)
        others = np.delete(s.coeffs, [1, small_grid.n_modes - 1])
        assert np.max(np.abs(others)) < 1e-14

    def test_zero_field(self, small_grid):
        s = kb.transform_forward(kb.RealField(small_grid, np.zeros(64)))
        assert np.all(s.coeffs == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_identity(self, small_grid, seed):
        f = _random_real_field(small_grid, seed)
        back = kb.transform_inverse(kb.transform_forward(f))
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_parseval(self, grid, seed):
        f = _random_real_field(grid, seed)
        s = kb.transform_forward(f)
        spectral = 2.0 * grid.half_length * np.sum(np.abs(s.coeffs) ** 2)
        physical = l2_quadrature(grid, f.samples) ** 2
        assert spectral == pytest.approx(physical, rel=1e-12)

    def test_inverse_constant_mode(self, small_grid):
        c = np.zeros(64, complex)
        c[0] = 3.0
        f = kb.transform_inverse(kb.Spectrum(small_grid, c))
        assert np.max(np.abs(f.samples - 3.0)) < 1e-13

    def test_inverse_rejects_broken_symmetry(self, small_grid):
        c = np.zeros(64, complex)
        c[1] = 1j  # no conjugate partner at -1
        with pytest.raises(kb.SymmetryError):
            kb.transform_inverse(kb.Spectrum(small_grid, c))

    def test_non_finite_samples_rejected(self, small_grid):
        bad = np.zeros(64)
        bad[3] = np.inf
        with pytest.raises(kb.NonFiniteError):
            kb.RealField(small_grid, bad)

    def test_hermitian_defect(self, small_grid):
        s = kb.transform_forward(_random_real_field(small_grid, 9))
        assert s.hermitian_defect() < 1e-14
        c = s.coeffs.copy()
        c[2] += 1.0
        assert kb.Spectrum(small_grid, c).hermitian_defect() > 0.1


class TestSymbols:
    def test_frozen_values(self, coeffs):
        assert kb.evaluate_symbol("psi", 0.0, coeffs) == 0.0
        assert kb.evaluate_symbol("omega", 1.0, coeffs) == pytest.approx(0.5, abs=1e-15)
        assert kb.evaluate_symbol("varphi", 1.0, coeffs) == pytest.approx(17 / 15, abs=1e-15)
        assert kb.evaluate_symbol("phi", 1.0, coeffs) == pytest.approx(181 / 204, abs=1e-15)
        assert kb.evaluate_symbol("tau", 1.0, coeffs) == pytest.approx(145 / 272, abs=1e-15)
        assert kb.evaluate_symbol("kappa", 0.0, coeffs) == pytest.approx(1.0, abs=1e-15)
        assert kb.evaluate_symbol("phi", 2.0, coeffs) == pytest.approx(47 / 24, abs=1e-14)

    def test_unknown_kind_rejected(self, coeffs):
        with pytest.raises(ValueError, match="unknown symbol"):
            kb.evaluate_symbol("zeta", 1.0, coeffs)

    def test_parity(self, coeffs):
        xi = np.linspace(0.25, 40.0, 160)
        for kind in ("phi", "psi", "tau"):
            odd = kb.evaluate_symbol(kind, xi, coeffs) + kb.evaluate_symbol(kind, -xi, coeffs)
            assert np.max(np.abs(odd)) < 1e-12
        for kind in ("varphi", "omega", "kappa"):
            even = kb.evaluate_symbol(kind, xi, coeffs) - kb.evaluate_symbol(kind, -xi, coeffs)
            assert np.max(np.abs(even)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        xi=st.floats(-1e4, 1e4),
        gamma1=st.floats(1e-6, 10.0),
        delta1=st.floats(1e-6, 10.0),
    )
    def test_varphi_positive(self, xi, gamma1, delta1):
        cs = kb.CoefficientSet(
            gamma1=gamma1, gamma2=1 / 6 - gamma1, delta1=delta1,
            delta2=delta1 + 19 / 360 - gamma1 / 6, gamma=(5 - 18 * gamma1) / 24,
        )
        assert kb.evaluate_symbol("varphi", xi, cs) > 0.0

    def test_symbol_dominations_grid_stable(self, coeffs):
        # |tau| <= C omega, |psi| <= C omega/(1+|xi|), (1+|xi|)^3 |psi| <= C,
        # with C independent of the resolution
        sups = []
        for n in (256, 512):
            g = kb.SpectralGrid(n, 16 * np.pi)
            xi = g.wavenumbers[g.wavenumbers != 0.0]
            omega = kb.evaluate_symbol("omega", xi, coeffs)
            tau = kb.evaluate_symbol("tau", xi, coeffs)
            psi = kb.evaluate_symbol("psi", xi, coeffs)
            sups.append((
                np.max(np.abs(tau) / omega),
                np.max(np.abs(psi) * (1 + np.abs(xi)) / omega),
                np.max((1 + np.abs(xi)) ** 3 * np.abs(psi)),
            ))
        for a, b in zip(*sups):
            assert np.isfinite(a) and np.isfinite(b)
            assert max(a, b) / min(a, b) < 2.0


class TestSymbolsOnGrid:
    def test_omega_on_cos(self, small_grid, coeffs):
        s = kb.cos_mode(small_grid, 1, 1.0)
        out = s.coeffs * symbol_on_grid(small_grid, coeffs, "omega")
        assert out[1] == pytest.approx(0.25, abs=1e-15)
        assert out[-1] == pytest.approx(0.25, abs=1e-15)

    def test_phi_on_mode_two(self, small_grid, coeffs):
        s = kb.cos_mode(small_grid, 2, 1.0)
        out = s.coeffs * symbol_on_grid(small_grid, coeffs, "phi")
        expected = 0.5 * kb.evaluate_symbol("phi", 2.0, coeffs)
        assert out[2] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("kind", ["varphi", "omega", "kappa"])
    def test_even_symbols_preserve_hermitian(self, small_grid, coeffs, kind):
        u = kb.random_field(small_grid, "band_limited", 5)
        out = kb.Spectrum(small_grid, u.coeffs * symbol_on_grid(small_grid, coeffs, kind))
        assert out.hermitian_defect() < 1e-13

    @pytest.mark.parametrize("kind", ["phi", "psi", "tau"])
    def test_odd_symbols_give_anti_hermitian(self, small_grid, coeffs, kind):
        # i times an odd-symbol image of a real field is again a real field
        u = kb.random_field(small_grid, "band_limited", 5)
        restored = kb.Spectrum(small_grid, 1j * u.coeffs * symbol_on_grid(small_grid, coeffs, kind))
        assert restored.hermitian_defect() < 1e-13


class TestDerivative:
    """The derivative the tendency applies: i*xi in half layout, 0 at the unpaired mode."""

    @staticmethod
    def _derivative(s, coeffs):
        ik = _half_symbols(s.grid, coeffs)[1]
        return kb.Spectrum(s.grid, full_spectrum(ik * half_spectrum(s.coeffs)))

    def test_cos_to_minus_sin(self, small_grid, coeffs):
        s = kb.cos_mode(small_grid, 1, 1.0)
        ds = self._derivative(s, coeffs)
        # -sin(x) has coefficients +-i/2 at k = +-1
        assert ds.coeffs[1] == pytest.approx(0.5j, abs=1e-15)
        assert ds.coeffs[-1] == pytest.approx(-0.5j, abs=1e-15)
        back = kb.transform_inverse(ds)
        assert np.max(np.abs(back.samples + np.sin(small_grid.x))) < 1e-13

    def test_constant_derivative_zero(self, small_grid, coeffs):
        s = kb.cos_mode(small_grid, 0, 4.0)
        assert np.all(self._derivative(s, coeffs).coeffs == 0)

    def test_derivative_keeps_field_real(self, grid, coeffs):
        s = kb.transform_forward(_random_real_field(grid, 11))
        ds = self._derivative(s, coeffs)
        f = kb.transform_inverse(ds)  # raises if the imaginary residual is large
        assert np.all(np.isfinite(f.samples))


def _product(factors):
    """The dealiased product of one stack of real-field spectra."""
    return product_spectra(np.array([f.coeffs for f in factors]))


class TestDealiasedProduct:
    def test_cos_squared(self, small_grid):
        s = kb.cos_mode(small_grid, 1, 1.0)
        p = _product([s, s])
        oracle = convolve_project(small_grid, s.coeffs, s.coeffs)
        assert np.max(np.abs(p - oracle)) < 1e-14
        assert p[0] == pytest.approx(0.5, abs=1e-14)
        assert p[2] == pytest.approx(0.25, abs=1e-14)

    def test_zero_factor(self, small_grid):
        s = kb.cos_mode(small_grid, 3, 2.0)
        z = kb.Spectrum(small_grid, np.zeros(64, complex))
        assert np.all(_product([s, z]) == 0)

    def test_cos_cubed(self, small_grid):
        s = kb.cos_mode(small_grid, 1, 1.0)
        p = _product([s, s, s])
        assert p[1] == pytest.approx(0.375, abs=1e-14)
        assert p[3] == pytest.approx(0.125, abs=1e-14)
        oracle = convolve_project(small_grid, s.coeffs, s.coeffs, s.coeffs)
        assert np.max(np.abs(p - oracle)) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pair_matches_convolution(self, small_grid, seed):
        u = kb.random_field(small_grid, "band_limited", seed, cutoff=20)
        v = kb.random_field(small_grid, "band_limited", seed + 100, cutoff=20)
        p = _product([u, v])
        oracle = convolve_project(small_grid, u.coeffs, v.coeffs)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(p - oracle)) < 1e-12 * scale

    def test_triple_matches_convolution(self, small_grid):
        u = kb.random_field(small_grid, "band_limited", 7, cutoff=9)
        v = kb.random_field(small_grid, "band_limited", 8, cutoff=9)
        w = kb.random_field(small_grid, "band_limited", 9, cutoff=9)
        p = _product([u, v, w])
        oracle = convolve_project(small_grid, u.coeffs, v.coeffs, w.coeffs)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(p - oracle)) < 1e-12 * scale

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("nyquist", [0.7, 0.4 - 0.9j])
    def test_nonzero_nyquist_matches_split_embedding(self, small_grid, arity, nyquist):
        # c_{-n/2} is read as a real field: half of it at -n/2, its conjugate
        # half at +n/2.  Embed that by hand on the 2n grid and convolve exactly.
        n, half = small_grid.n_modes, small_grid.nyquist
        fine = kb.SpectralGrid(2 * n, small_grid.half_length)
        factors, embedded = [], []
        for i in range(arity):
            c = kb.random_field(small_grid, "band_limited", 30 + i, cutoff=half - 1).coeffs
            c[half] = (i + 1) * nyquist
            factors.append(kb.Spectrum(small_grid, c))
            e = np.zeros(2 * n, complex)
            e[:half] = c[:half]
            e[2 * n - half + 1 :] = c[half + 1 :]
            e[2 * n - half] = 0.5 * c[half]
            e[half] = 0.5 * np.conj(c[half])
            embedded.append(e)
        exact = convolve_project(fine, *embedded)
        oracle = np.zeros(n, complex)
        oracle[:half] = exact[:half]
        oracle[half + 1 :] = exact[2 * n - half + 1 :]
        p = _product(factors)
        assert np.max(np.abs(p - oracle)) < 1e-12 * np.max(np.abs(oracle))

    def test_batched_rows_equal_single_rows(self, small_grid):
        rows = np.stack(
            [kb.random_field(small_grid, "band_limited", 40 + i).coeffs for i in range(3)]
        )
        pairs = np.stack([rows, rows], axis=1)  # (3, 2, n): the square of each row
        spectra = product_spectra(pairs)
        assert spectra.shape == rows.shape
        for i in range(3):
            single = product_spectra(pairs[i])
            assert np.max(np.abs(spectra[i] - single)) <= 1e-15 * np.max(np.abs(single))

    @pytest.mark.parametrize("mode", [0, 3])
    def test_non_real_factor_rejected(self, small_grid, mode):
        u = kb.random_field(small_grid, "band_limited", 50)
        c = u.coeffs.copy()
        c[mode] += 0.5j  # breaks c_{-k} = conj(c_k)
        with pytest.raises(kb.SymmetryError):
            _product([u, kb.Spectrum(small_grid, c)])

    def test_triple_equals_nested_for_resolvable_band(self, small_grid):
        # inputs band-limited below n/4 keep the intermediate product exact
        u = kb.random_field(small_grid, "band_limited", 21, cutoff=15)
        v = kb.random_field(small_grid, "band_limited", 22, cutoff=15)
        w = kb.random_field(small_grid, "band_limited", 23, cutoff=15)
        flat = _product([u, v, w])
        nested = _product([kb.Spectrum(small_grid, _product([u, v])), w])
        scale = np.max(np.abs(flat))
        assert np.max(np.abs(flat - nested)) < 1e-12 * scale


def test_csv_rows_ordering(small_grid):
    s = kb.cos_mode(small_grid, 1, 1.0)
    rows = list(kb.spectrum_csv_rows(s))
    assert len(rows) == 64
    ks = [r[0] for r in rows]
    assert ks == sorted(ks)
    by_k = {r[0]: r for r in rows}
    assert by_k[1][2] == pytest.approx(0.5)
    assert by_k[1][1] == pytest.approx(1.0)
