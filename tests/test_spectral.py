import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdvbbm as kb
from kdvbbm.spectral import product_spectra, symbol_on_grid
from draws import random_spectrum
from oracles import (
    convolve_project,
    fft_to_half,
    fft_wavenumbers,
    half_to_fft,
    hermitian_defect,
    l2_quadrature,
    synthesize,
)


def _random_samples(grid, seed):
    return np.random.default_rng(seed).standard_normal(grid.n_modes)


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            kb.SpectralGrid(96, np.pi)

    def test_rejects_bad_half_length(self):
        with pytest.raises(ValueError):
            kb.SpectralGrid(64, -1.0)

    def test_mode_layout(self, small_grid):
        assert small_grid.nyquist == 32
        assert list(small_grid.modes) == list(range(33))
        assert list(small_grid.phase) == [(-1.0) ** k for k in range(33)]
        assert list(small_grid.parseval) == [1.0] + [2.0] * 31 + [4.0]

    def test_wavenumbers(self, small_grid):
        assert small_grid.wavenumbers[1] == pytest.approx(1.0)
        assert small_grid.wavenumbers[-1] == pytest.approx(32.0)
        assert np.array_equal(small_grid.wavenumbers, np.abs(fft_wavenumbers(small_grid)[:33]))


class TestSpectrumGate:
    """The Spectrum constructor is the one real-field gate: d_0 must be real."""

    def test_rejects_non_real_mode_zero(self, small_grid):
        d = random_spectrum(small_grid, "band_limited", 12).half.copy()
        d[0] += 1e-3j
        with pytest.raises(kb.SymmetryError):
            kb.Spectrum(small_grid, d)

    def test_accepts_mode_zero_imaginary_at_round_off(self, small_grid):
        d = random_spectrum(small_grid, "band_limited", 12).half.copy()
        d[0] += 1e-12j * np.abs(d).max()
        assert kb.Spectrum(small_grid, d).half[0] == d[0]

    def test_every_other_mode_and_nyquist_free(self, small_grid):
        rng = np.random.default_rng(4)
        d = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        d[0] = d[0].real
        kb.Spectrum(small_grid, d)  # any d_k of k > 0 is a real field's

    def test_rejects_wrong_length(self, small_grid):
        with pytest.raises(ValueError, match="33 coefficients"):
            kb.Spectrum(small_grid, np.zeros(64, complex))


class TestTransforms:
    def test_cos_single_mode(self, small_grid):
        c = half_to_fft(kb.spectrum_from_samples(small_grid, np.cos(small_grid.x)).half)
        assert c[1] == pytest.approx(0.5, abs=1e-14)
        assert c[-1] == pytest.approx(0.5, abs=1e-14)
        others = np.delete(c, [1, small_grid.n_modes - 1])
        assert np.max(np.abs(others)) < 1e-14

    def test_zero_field(self, small_grid):
        s = kb.spectrum_from_samples(small_grid, np.zeros(64))
        assert np.all(s.half == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_identity(self, small_grid, seed):
        f = _random_samples(small_grid, seed)
        back = synthesize(half_to_fft(kb.spectrum_from_samples(small_grid, f).half))
        assert np.max(np.abs(back - f)) < 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_parseval(self, grid, seed):
        f = _random_samples(grid, seed)
        d = kb.spectrum_from_samples(grid, f).half
        spectral = 2.0 * grid.half_length * np.sum(np.abs(half_to_fft(d)) ** 2)
        folded = 2.0 * grid.half_length * np.sum(grid.parseval * np.abs(d) ** 2)
        physical = l2_quadrature(grid, f) ** 2
        assert spectral == pytest.approx(physical, rel=1e-12)
        assert folded == pytest.approx(physical, rel=1e-12)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_complex_fft_of_samples(self, small_grid, seed):
        f = _random_samples(small_grid, seed)
        c = (-1.0) ** np.arange(64) * np.fft.fft(f) / 64
        d = kb.spectrum_from_samples(small_grid, f).half
        assert np.max(np.abs(d - fft_to_half(c))) <= 1e-15 * np.max(np.abs(d))

    @pytest.mark.parametrize("width, amplitude", [(0.3, 0.5), (1.0, 0.05)])
    def test_gaussian_matches_complex_fft(self, grid, width, amplitude):
        # the rfft of gaussian against the complex FFT, phase and projection it replaced
        samples = amplitude * np.exp(-0.5 * (grid.x / width) ** 2)
        c = (-1.0) ** np.arange(grid.n_modes) * np.fft.fft(samples) / grid.n_modes
        d = kb.gaussian(grid, width, amplitude).half
        assert np.max(np.abs(d - fft_to_half(c))) <= 1e-15 * np.max(np.abs(d))

    def test_synthesis_oracle_constant_mode(self, small_grid):
        c = np.zeros(64, complex)
        c[0] = 3.0
        assert np.max(np.abs(synthesize(c) - 3.0)) < 1e-13

    def test_synthesis_oracle_rejects_broken_symmetry(self):
        c = np.zeros(64, complex)
        c[1] = 1j  # no conjugate partner at -1
        with pytest.raises(ValueError):
            synthesize(c)

    def test_non_finite_samples_rejected(self, small_grid):
        bad = np.zeros(64)
        bad[3] = np.inf
        with pytest.raises(kb.NonFiniteError):
            kb.spectrum_from_samples(small_grid, bad)

    @pytest.mark.parametrize("k", [0, 3, 32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_coefficient_rejected(self, small_grid, bad, k):
        # the Spectrum constructor is the field gate, before the Im d_0 check reads the max
        d = np.zeros(small_grid.nyquist + 1, complex)
        d[k] = bad
        with pytest.raises(kb.NonFiniteError):
            kb.Spectrum(small_grid, d)

    def test_underflowing_gaussian_is_one_spike(self, small_grid):
        spike = np.zeros(64)
        spike[32] = 0.5  # x_32 = 0
        d = kb.gaussian(small_grid, 1.0e-300, 0.5).half
        assert d.tobytes() == kb.spectrum_from_samples(small_grid, spike).half.tobytes()

    def test_hermitian_defect_oracle(self, small_grid):
        c = np.fft.fft(_random_samples(small_grid, 9)) / 64
        assert hermitian_defect(c) < 1e-14
        c[2] += 1.0
        assert hermitian_defect(c) > 0.1

    def test_converters_invert_each_other(self, small_grid):
        c = half_to_fft(random_spectrum(small_grid, "polynomial_decay", 8, power=1.0).half)
        c[small_grid.nyquist] = 0.3 - 0.4j  # the unpaired mode is exempt from the symmetry
        assert np.array_equal(half_to_fft(fft_to_half(c)), c)
        c[3] += 1e-3j
        with pytest.raises(ValueError):
            fft_to_half(c)


class TestSymbols:
    def test_frozen_values(self, coeffs):
        assert kb.evaluate_symbol("psi", 0.0, coeffs) == 0.0
        assert kb.evaluate_symbol("omega", 1.0, coeffs) == pytest.approx(0.5, abs=1e-15)
        assert kb.evaluate_symbol("varphi", 1.0, coeffs) == pytest.approx(17 / 15, abs=1e-15)
        assert kb.evaluate_symbol("phi", 1.0, coeffs) == pytest.approx(181 / 204, abs=1e-15)
        assert kb.evaluate_symbol("tau", 1.0, coeffs) == pytest.approx(145 / 272, abs=1e-15)
        assert kb.evaluate_symbol("phi", 2.0, coeffs) == pytest.approx(47 / 24, abs=1e-14)

    def test_unknown_kind_rejected(self, coeffs):
        with pytest.raises(ValueError, match="unknown symbol"):
            kb.evaluate_symbol("zeta", 1.0, coeffs)

    def test_parity(self, coeffs):
        xi = np.linspace(0.25, 40.0, 160)
        for kind in ("phi", "psi", "tau"):
            odd = kb.evaluate_symbol(kind, xi, coeffs) + kb.evaluate_symbol(kind, -xi, coeffs)
            assert np.max(np.abs(odd)) < 1e-12
        for kind in ("varphi", "omega"):
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
        out = half_to_fft(s.half * symbol_on_grid(small_grid, coeffs, "omega"))
        assert out[1] == pytest.approx(0.25, abs=1e-15)
        assert out[-1] == pytest.approx(0.25, abs=1e-15)

    def test_phi_on_mode_two(self, small_grid, coeffs):
        s = kb.cos_mode(small_grid, 2, 1.0)
        out = half_to_fft(s.half * symbol_on_grid(small_grid, coeffs, "phi"))
        expected = 0.5 * kb.evaluate_symbol("phi", 2.0, coeffs)
        assert out[2] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("kind", ["varphi", "omega"])
    def test_even_symbols_act_on_every_mode(self, small_grid, coeffs, kind):
        # sampled at k = 0..n/2, an even symbol multiplies c_k and c_{-k} alike
        u = random_spectrum(small_grid, "band_limited", 5)
        out = half_to_fft(u.half * symbol_on_grid(small_grid, coeffs, kind))
        full = half_to_fft(u.half) * kb.evaluate_symbol(kind, fft_wavenumbers(small_grid), coeffs)
        assert np.max(np.abs(out - full)) <= 1e-15 * np.max(np.abs(full))

    @pytest.mark.parametrize("kind", ["phi", "psi", "tau"])
    def test_odd_symbols_act_on_every_mode(self, small_grid, coeffs, kind):
        # i times an odd-symbol image of a real field is again a real field; the unpaired
        # mode, whose partner is missing, reads 0
        u = random_spectrum(small_grid, "polynomial_decay", 5, power=1.0)
        out = half_to_fft(1j * u.half * symbol_on_grid(small_grid, coeffs, kind))
        symbol = kb.evaluate_symbol(kind, fft_wavenumbers(small_grid), coeffs)
        symbol[small_grid.nyquist] = 0.0
        full = 1j * half_to_fft(u.half) * symbol
        assert hermitian_defect(full) < 1e-13
        assert np.max(np.abs(out - full)) <= 1e-15 * np.max(np.abs(full))


class TestDerivative:
    """The derivative the tendency applies: i*xi in half layout, 0 at the unpaired mode."""

    @staticmethod
    def _derivative(s):
        return kb.Spectrum(s.grid, s.grid.derivative * s.half)

    def test_cos_to_minus_sin(self, small_grid):
        ds = half_to_fft(self._derivative(kb.cos_mode(small_grid, 1, 1.0)).half)
        # -sin(x) has coefficients +-i/2 at k = +-1
        assert ds[1] == pytest.approx(0.5j, abs=1e-15)
        assert ds[-1] == pytest.approx(-0.5j, abs=1e-15)
        assert np.max(np.abs(synthesize(ds) + np.sin(small_grid.x))) < 1e-13

    def test_constant_derivative_zero(self, small_grid):
        s = kb.cos_mode(small_grid, 0, 4.0)
        assert np.all(self._derivative(s).half == 0)

    def test_derivative_matches_fft_layout(self, grid):
        s = kb.spectrum_from_samples(grid, _random_samples(grid, 11))
        expected = 1j * fft_wavenumbers(grid) * half_to_fft(s.half)
        expected[grid.nyquist] = 0.0
        got = half_to_fft(self._derivative(s).half)
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


def _product(factors):
    """The dealiased product of one stack of real-field spectra, in FFT layout."""
    return half_to_fft(product_spectra(np.array([f.half for f in factors])))


def _fft(u):
    return half_to_fft(u.half)


class TestDealiasedProduct:
    def test_cos_squared(self, small_grid):
        s = kb.cos_mode(small_grid, 1, 1.0)
        p = _product([s, s])
        oracle = convolve_project(small_grid, _fft(s), _fft(s))
        assert np.max(np.abs(p - oracle)) < 1e-14
        assert p[0] == pytest.approx(0.5, abs=1e-14)
        assert p[2] == pytest.approx(0.25, abs=1e-14)

    def test_zero_factor(self, small_grid):
        s = kb.cos_mode(small_grid, 3, 2.0)
        z = kb.Spectrum(small_grid, np.zeros(33, complex))
        assert np.all(_product([s, z]) == 0)

    def test_cos_cubed(self, small_grid):
        s = kb.cos_mode(small_grid, 1, 1.0)
        p = _product([s, s, s])
        assert p[1] == pytest.approx(0.375, abs=1e-14)
        assert p[3] == pytest.approx(0.125, abs=1e-14)
        oracle = convolve_project(small_grid, _fft(s), _fft(s), _fft(s))
        assert np.max(np.abs(p - oracle)) < 1e-14

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pair_matches_convolution(self, small_grid, seed):
        u = random_spectrum(small_grid, "band_limited", seed, cutoff=20)
        v = random_spectrum(small_grid, "band_limited", seed + 100, cutoff=20)
        p = _product([u, v])
        oracle = convolve_project(small_grid, _fft(u), _fft(v))
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(p - oracle)) < 1e-12 * scale

    def test_triple_matches_convolution(self, small_grid):
        u = random_spectrum(small_grid, "band_limited", 7, cutoff=9)
        v = random_spectrum(small_grid, "band_limited", 8, cutoff=9)
        w = random_spectrum(small_grid, "band_limited", 9, cutoff=9)
        p = _product([u, v, w])
        oracle = convolve_project(small_grid, _fft(u), _fft(v), _fft(w))
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
            c = _fft(random_spectrum(small_grid, "band_limited", 30 + i, cutoff=half - 1))
            c[half] = (i + 1) * nyquist
            factors.append(kb.Spectrum(small_grid, fft_to_half(c)))
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
            [random_spectrum(small_grid, "band_limited", 40 + i).half for i in range(3)]
        )
        pairs = np.stack([rows, rows], axis=1)  # (3, 2, n/2+1): each row squared
        spectra = product_spectra(pairs)
        assert spectra.shape == pairs[:, 0].shape
        for i in range(3):
            single = product_spectra(pairs[i])
            assert np.max(np.abs(spectra[i] - single)) <= 1e-15 * np.max(np.abs(single))

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("cutoff", [4, 8, 15, 31])
    def test_band_sized_grid_matches_convolution(self, small_grid, arity, cutoff):
        # the padded grid follows the band between n and 2n: n for cutoffs 4 and 8 (and for
        # 15 at arity 2), 2n at the full band n/2 - 1
        factors = [
            random_spectrum(small_grid, "band_limited", 60 + i, cutoff=cutoff) for i in range(arity)
        ]
        p = _product(factors)
        oracle = convolve_project(small_grid, *(_fft(f) for f in factors))
        assert np.max(np.abs(p - oracle)) < 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("arity", [2, 3])
    def test_full_band_stack_unchanged(self, small_grid, arity):
        # a stack reaching mode n/2 - 1 keeps the factor-2 padded grid of 2n points
        factors = [
            random_spectrum(small_grid, "exponential_decay", 70 + i, rate=0.05) for i in range(arity)
        ]
        d = np.array([f.half for f in factors])
        h = small_grid.nyquist
        padded = np.fft.rfft(np.prod(np.fft.irfft(d, 4 * h, norm="forward"), axis=0), norm="forward")
        expected = padded[: h + 1]
        expected[h] = 0.0
        assert np.array_equal(product_spectra(d), expected)
        oracle = convolve_project(small_grid, *(_fft(f) for f in factors))
        assert np.max(np.abs(_product(factors) - oracle)) < 1e-12 * np.max(np.abs(oracle))

    def test_rows_of_different_bands_equal_single_rows(self, small_grid):
        # the stack's grid follows its widest row; each narrower row still gets its own result
        pairs = np.array([
            [random_spectrum(small_grid, "band_limited", 80 + 2 * i + j, cutoff=cutoff).half
             for j in range(2)]
            for i, cutoff in enumerate((3, 10, 31))
        ])
        spectra = product_spectra(pairs)
        for i in range(3):
            single = product_spectra(pairs[i])
            assert np.max(np.abs(spectra[i] - single)) <= 1e-15 * np.max(np.abs(single))

    def test_constant_factors(self, small_grid):
        # a stack holding mode 0 alone needs a single sample
        d = np.zeros(small_grid.nyquist + 1, complex)
        d[0] = 1.5
        p = _product([kb.Spectrum(small_grid, d), kb.Spectrum(small_grid, -2.0 * d)])
        assert p[0] == -4.5 and np.all(p[1:] == 0.0)

    @pytest.mark.parametrize("offset", [0.5j, 1e-6j])
    def test_non_real_factor_rejected(self, small_grid, offset):
        # a factor reaches the product only as a Spectrum, whose d_0 must be real
        d = random_spectrum(small_grid, "band_limited", 50).half.copy()
        d[0] += offset
        with pytest.raises(kb.SymmetryError):
            _product([random_spectrum(small_grid, "band_limited", 51), kb.Spectrum(small_grid, d)])

    def test_triple_equals_nested_for_resolvable_band(self, small_grid):
        # inputs band-limited below n/4 keep the intermediate product exact
        u = random_spectrum(small_grid, "band_limited", 21, cutoff=15)
        v = random_spectrum(small_grid, "band_limited", 22, cutoff=15)
        w = random_spectrum(small_grid, "band_limited", 23, cutoff=15)
        flat = _product([u, v, w])
        nested = _product([kb.Spectrum(small_grid, fft_to_half(_product([u, v]))), w])
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


@pytest.mark.parametrize("n", [4, 8, 256])
def test_csv_rows_match_sorted_oracle(n):
    grid = kb.SpectralGrid(n, 3.0)
    rng = np.random.default_rng(n)
    d = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    d[0] = d[0].real
    rows = list(kb.spectrum_csv_rows(kb.Spectrum(grid, d)))
    assert [r[0] for r in rows] == list(range(-n // 2, n // 2))
    c, modes, xi = half_to_fft(d), np.fft.fftfreq(n, 1.0 / n), fft_wavenumbers(grid)
    oracle = [
        (int(modes[i]), float(xi[i]), float(c[i].real), float(c[i].imag), float(abs(c[i])))
        for i in np.argsort(modes)
    ]
    assert rows == oracle
