import math
import tracemalloc

import numpy as np
import pytest

import kdvbbm as kb
from kdvbbm import estimates
from kdvbbm.estimates import (
    CAMPAIGNS,
    MULTILINEAR,
    PROFILES,
    TRIAL_BLOCK,
    _interpolation_values,
    _multilinear_values,
    _splitting_parts,
    _streams,
    _trials_per_block,
    campaign,
)
from draws import random_spectrum
from oracles import cauchy_schwarz_bound, convolve_project, fft_to_half, fft_wavenumbers, half_to_fft

G_S0 = kb.GevreyIndex(0.0, 0.0)
G_S1 = kb.GevreyIndex(0.1, 1.0)


class TestRandomField:
    def test_deterministic(self, grid):
        a = random_spectrum(grid, "band_limited", 123)
        b = random_spectrum(grid, "band_limited", 123)
        assert np.array_equal(a.half, b.half)
        c = random_spectrum(grid, "band_limited", 124)
        assert not np.array_equal(a.half, c.half)

    def test_band_limited_cutoff(self, grid):
        u = random_spectrum(grid, "band_limited", 5, cutoff=10)
        high = grid.modes > 10
        assert np.all(u.half[high] == 0)
        assert np.any(u.half[~high] != 0)

    @pytest.mark.parametrize("n", [4, 8, 64, 256])
    def test_default_cutoff_is_at_least_one(self, n):
        # the default cutoff is max(1, n/8): from n = 8 on it is n/8, draw for draw, and at
        # n = 4 a field still holds mode 1, not only its mean
        grid = kb.SpectralGrid(n, 16.0 * np.pi)
        d = kb.random_fields(grid, "band_limited", _streams(3), 5)
        live = max(1, n // 8)
        assert np.all(d[:, live + 1 :] == 0) and np.all(d[:, live] != 0)
        if n >= 8:
            fixed = kb.random_fields(grid, "band_limited", _streams(3), 5, cutoff=n // 8)
            assert d.tobytes() == fixed.tobytes()

    def test_existence_constant_positive_on_four_modes(self, coeffs):
        grid = kb.SpectralGrid(4, 16.0 * np.pi)
        assert kb.existence_constant(grid, kb.GevreyIndex(0.1, 2.0), coeffs) > 0

    def test_real_and_zero_nyquist(self, grid):
        for profile, kw in (
            ("band_limited", {}),
            ("exponential_decay", {"rate": 0.5}),
            ("polynomial_decay", {"power": 2.0}),
        ):
            d = kb.random_fields(grid, profile, _streams(6), 3, **kw)
            assert np.all(d[:, 0].imag == 0)  # a real field's mean is real
            assert np.all(d[:, grid.nyquist] == 0)
            assert np.array_equal(random_spectrum(grid, profile, 6, **kw).half, d[0])

    def test_exponential_rate_recovered_on_average(self, grid):
        fits = [
            kb.estimate_radius(random_spectrum(grid, "exponential_decay", seed, rate=0.5)).sigma_hat
            for seed in range(100)
        ]
        assert np.mean(fits) == pytest.approx(0.5, rel=0.1)

    def test_profile_validation(self, grid):
        with pytest.raises(ValueError, match="unknown profile"):
            random_spectrum(grid, "white", 0)
        with pytest.raises(ValueError, match="rate"):
            random_spectrum(grid, "exponential_decay", 0)
        with pytest.raises(ValueError, match="power"):
            random_spectrum(grid, "polynomial_decay", 0)


# The kernels take blocks of half-layout spectra; these run them on one trial of Spectrum
# fields, whose constructor checks that each is the spectrum of a real field.


def _ratio(lemma_id, fields, g, coeffs):
    """The multilinear kernel on one trial of fields, at any s."""
    values = _multilinear_values(lemma_id, fields[0].grid, g, coeffs)
    return float(values(np.array([[f.half for f in fields]]))[0])


def _interpolation(u, s1, s2, theta, sigma):
    return float(_interpolation_values(u.grid, sigma, s1, s2, theta)(u.half[None])[0])


def _splitting(u, s, r, sigma):
    """|J^{s,sigma}u|, |J^s u| and sigma^r |J^{s+r,sigma}u| of one field."""
    parts = _splitting_parts(u.grid, kb.GevreyIndex(sigma, s), r)(u.half[None])
    return (float(part[0]) for part in parts)


def _antisymmetry(v, coeffs):
    _, [residuals] = campaign("antisymmetry", v.grid, G_S0, coeffs)
    return float(residuals(v.half[None])[0])


class TestMultilinearRatio:
    def test_constant_pair_gives_zero(self, small_grid, coeffs):
        const = kb.cos_mode(small_grid, 0, 1.0)
        ratio = _ratio("bilinear_omega", (const, const), G_S0, coeffs)
        assert ratio == 0.0

    def test_cos_pair_closed_form(self, small_grid, coeffs):
        # product of two unit cosines: mass 1/2 at 0 (killed by omega) and 1/4
        # at +-2 weighted by omega(2) = 2/5; denominators are L2 norms sqrt(pi)
        u = kb.cos_mode(small_grid, 1, 1.0)
        ratio = _ratio("bilinear_omega", (u, u), G_S0, coeffs)
        assert ratio == pytest.approx(1.0 / (5.0 * np.sqrt(np.pi)), rel=1e-12)

    def test_cos_pair_matches_brute_force(self, small_grid, coeffs):
        u = kb.cos_mode(small_grid, 1, 1.0)
        c = half_to_fft(u.half)
        prod = convolve_project(small_grid, c, c)
        xi = fft_wavenumbers(small_grid)
        weighted = kb.evaluate_symbol("omega", xi, coeffs) * prod
        num = np.sqrt(2 * small_grid.half_length * np.sum(np.abs(weighted) ** 2))
        den = kb.sobolev_norm(u, 0.0) ** 2
        expected = num / den
        got = _ratio("bilinear_omega", (u, u), G_S0, coeffs)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_range_enforced_by_campaign(self, small_grid, coeffs):
        u = kb.cos_mode(small_grid, 2, 1.0)
        g_neg = kb.GevreyIndex(0.0, -0.5)
        with pytest.raises(ValueError, match="requires s >="):
            campaign("bilinear_omega", small_grid, g_neg, coeffs)
        # the kernel itself evaluates below the range, as the failure demo does
        assert _ratio("bilinear_omega", (u, u), g_neg, coeffs) > 0

    def test_zero_field_rejected(self, small_grid, coeffs):
        z = kb.Spectrum(small_grid, np.zeros(33, complex))
        with pytest.raises(kb.NormOverflowError, match="nonzero fields"):
            _ratio("bilinear_omega", (z, z), G_S0, coeffs)

    @pytest.mark.parametrize("lemma_id, amplitude", [("trilinear_psi", 1.0), ("bilinear_omega", 1e10)])
    def test_overflowing_norms_rejected(self, coeffs, lemma_id, amplitude):
        # on a grid of half-length 1e300 a field of unit modes has a norm near 1e151, whose
        # cube overflows, and one of modes 1e10 an infinite norm: either ratio would read 0
        # after a numpy warning
        grid = kb.SpectralGrid(16, 1.0e300)
        field = kb.Spectrum(grid, np.full(9, amplitude, complex))
        arity = estimates.MULTILINEAR[lemma_id][0]
        with pytest.raises(kb.NormOverflowError, match=f"^the {lemma_id} ratio needs finite norms"):
            _ratio(lemma_id, (field,) * arity, G_S0, coeffs)

    def test_trilinear_and_derivsq_run_in_range(self, grid, coeffs):
        g = kb.GevreyIndex(0.1, 2.0)
        fields = [random_spectrum(grid, "band_limited", seed, cutoff=20) for seed in range(3)]
        r3 = _ratio("trilinear_psi", fields, g, coeffs)
        r2 = _ratio("derivsq_psi", fields[:2], g, coeffs)
        assert np.isfinite(r3) and r3 > 0
        assert np.isfinite(r2) and r2 > 0


class TestInterpolation:
    def test_theta_one_exact(self, grid):
        u = random_spectrum(grid, "band_limited", 11)
        assert _interpolation(u, 0.0, 2.0, 1.0, 0.1) == 1.0

    def test_single_mode_equality(self, grid):
        u = kb.cos_mode(grid, 5, 1.0)
        ratio = _interpolation(u, 0.0, 2.0, 0.5, 0.2)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_fields_bounded_by_one(self, grid, seed):
        u = random_spectrum(grid, "band_limited", seed)
        assert _interpolation(u, 0.0, 2.0, 0.5, 0.1) <= 1.0 + 1e-12

    def test_validation(self, grid):
        u = random_spectrum(grid, "band_limited", 0)
        with pytest.raises(ValueError):
            _interpolation(u, 2.0, 0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            _interpolation(u, 0.0, 2.0, 1.5, 0.1)

    def test_zero_field_rejected(self, small_grid, coeffs):
        # a campaign never draws a zero field, but its kernel refuses one rather than divide by 0
        _, (kernel,) = campaign("interpolation", small_grid, G_S1, coeffs, [[0.0, 2.0, 0.5]])
        with pytest.raises(ValueError, match=r"^interpolation check requires a nonzero field$"):
            kernel(np.zeros((2, small_grid.nyquist + 1), complex))


class TestSplitting:
    def test_sigma_zero_trivial(self, grid):
        u = random_spectrum(grid, "band_limited", 2)
        lhs, sob, shifted = _splitting(u, 1.0, 1.0, 0.0)
        assert lhs <= sob + shifted + 1e-12 * (sob + shifted) + 1e-300
        assert shifted == 0.0
        assert lhs == pytest.approx(sob, rel=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_r1_unit_constants(self, grid, seed):
        # c1 = c2 = 1 holds at r = 1 (pointwise e^x <= 1 + x e^x plus Minkowski)
        u = random_spectrum(grid, "band_limited", seed)
        lhs, sob, shifted = _splitting(u, 1.0, 1.0, 0.1)
        assert lhs <= sob + shifted + 1e-12 * (sob + shifted) + 1e-300
        assert max(0.0, lhs - sob) / shifted <= 1.0

    def test_half_r_c2_grid_stable(self, coeffs):
        # the smallest c2 with c1 = 1 at r = 1/2 does not grow under grid refinement
        maxima = []
        for n in (256, 512):
            grid = kb.SpectralGrid(n, 16 * np.pi)
            c2 = max(
                max(0.0, lhs - sob) / shifted
                for lhs, sob, shifted in (
                    _splitting(random_spectrum(grid, "band_limited", k, cutoff=32), 1.0, 0.5, 0.1)
                    for k in range(77, 177)
                )
            )
            maxima.append(c2)
        assert max(maxima) / min(maxima) < 2.0

    def test_validation(self, grid):
        u = random_spectrum(grid, "band_limited", 3)
        with pytest.raises(ValueError):
            _splitting(u, 0.0, -1.0, 0.1)


class TestAntisymmetry:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_fields(self, grid, coeffs, seed):
        v = random_spectrum(grid, "band_limited", seed)
        assert _antisymmetry(v, coeffs) < 1e-12

    def test_zero(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.nyquist + 1, complex))
        assert _antisymmetry(z, coeffs) == 0.0

    def test_cos_mode_cancellation(self, small_grid, coeffs):
        v = kb.cos_mode(small_grid, 4, 1.0)
        assert _antisymmetry(v, coeffs) < 1e-14

    def test_unpaired_mode(self, small_grid, coeffs):
        # a real field may carry a real c_{-n/2}; the odd phi reads 0 there
        c = half_to_fft(kb.cos_mode(small_grid, 1, 1.0).half)
        c[small_grid.nyquist] = 1e-3
        v = kb.Spectrum(small_grid, fft_to_half(c))  # accepted as a real field
        assert _antisymmetry(v, coeffs) < 1e-14


class TestFailureDemo:
    def test_negative_s_grows_monotonically(self):
        demo = kb.failure_demo_bilinear(-0.5)
        assert demo.monotone
        ratios = [r for (_, _, r) in demo.rows]
        assert ratios == sorted(ratios)
        assert demo.growth_exponent > 0.5

    @pytest.mark.parametrize("s, ks", [(-0.5, (8, 16, 32, 64)), (-1.0, (4, 8)), (-0.1, (3, 5, 9))])
    def test_growth_exponent_is_least_squares_slope(self, s, ks):
        demo = kb.failure_demo_bilinear(s, ks=ks)
        x = np.log([k for (k, _, _) in demo.rows])
        y = np.log([r for (_, _, r) in demo.rows])
        assert demo.growth_exponent == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)

    def test_zero_s_is_bounded_on_same_pairs(self, coeffs):
        ratios = []
        for k in (8, 16, 32, 64):
            grid = kb.SpectralGrid(max(64, 4 * k), np.pi)
            u = kb.cos_mode(grid, k, 1.0)
            v = kb.cos_mode(grid, k - 1, 1.0)
            ratios.append(_ratio("bilinear_omega", (u, v), G_S0, coeffs))
        assert max(ratios) / min(ratios) < 1.5

    def test_default_s_is_the_constant(self):
        # the demo's s is a constant of estimates, below the bilinear range s >= 0
        assert estimates.FAILURE_S == -0.5
        assert kb.failure_demo_bilinear() == kb.failure_demo_bilinear(estimates.FAILURE_S)

    def test_underflowing_norms_raise(self):
        # at s = -90 the inputs' norms <xi_k>^s underflow to 0 at k = 64: the kernel raises
        # rather than divide by them; at s = -88 they do not
        with pytest.raises(kb.NormOverflowError, match="nonzero fields"):
            kb.failure_demo_bilinear(-90.0)
        assert kb.failure_demo_bilinear(-88.0).monotone

    def test_milder_s_grows_slower(self):
        mild = kb.failure_demo_bilinear(-0.1)
        steep = kb.failure_demo_bilinear(-1.0)
        assert mild.growth_exponent < steep.growth_exponent

    def test_validation(self):
        with pytest.raises(ValueError):
            kb.failure_demo_bilinear(0.5)
        with pytest.raises(ValueError):
            kb.failure_demo_bilinear(-0.5, ks=(1, 2))
        for ks in ((2, 2), (8, 4), (8,)):
            with pytest.raises(ValueError, match="strictly increasing"):
                kb.failure_demo_bilinear(-0.5, ks=ks)


class TestTrialCampaigns:
    def test_deterministic_reports(self, grid, coeffs):
        a = kb.run_trials("bilinear_omega", grid, G_S1, coeffs, n_trials=50, seed=3)
        b = kb.run_trials("bilinear_omega", grid, G_S1, coeffs, n_trials=50, seed=3)
        assert a == b

    def test_report_shape(self, grid, coeffs):
        [rep] = kb.run_trials("interpolation", grid, kb.GevreyIndex(0.1, 0.0), coeffs,
                              n_trials=20, seed=1, combos=[(0.0, 2.0, 0.5)])
        assert rep.ratio_max >= rep.ratio_mean >= 0.0
        assert (rep.lemma_id, rep.s, rep.sigma, rep.n_modes) == ("interpolation", 0.0, 0.1, grid.n_modes)
        assert (rep.n_trials, rep.seed) == (20, 1)

    @pytest.mark.parametrize("lemma_id", CAMPAIGNS)
    def test_one_report_per_kernel(self, small_grid, coeffs, lemma_id):
        # every campaign returns a list; only interpolation reads combos, one report each
        combos = [(0.0, 2.0, 0.5), (1.0, 3.0, 0.5)]
        reports = kb.run_trials(lemma_id, small_grid, G_CAMPAIGN, coeffs, n_trials=3, combos=combos)
        assert len(reports) == (2 if lemma_id == "interpolation" else 1)
        assert all(isinstance(rep, kb.TrialReport) for rep in reports)
        if lemma_id != "interpolation":
            assert reports == kb.run_trials(lemma_id, small_grid, G_CAMPAIGN, coeffs, n_trials=3)

    def test_interpolation_needs_combos(self, small_grid, coeffs):
        with pytest.raises(ValueError, match="requires combos"):
            kb.run_trials("interpolation", small_grid, G_CAMPAIGN, coeffs, n_trials=2)

    @pytest.mark.parametrize("profile, kw", [
        ("band_limited", {}),
        ("exponential_decay", {"rate": 0.5}),
        ("polynomial_decay", {"power": 2.0, "cutoff": 20}),
    ])
    def test_combos_share_draws(self, grid, coeffs, profile, kw):
        # every combo is evaluated on one set of draws
        g = kb.GevreyIndex(0.1, 0.0)
        combos = ((0.0, 2.0, 0.5), (1.0, 3.0, 0.5), (0.5, 2.5, 1.0 / 3.0))
        together = kb.run_trials("interpolation", grid, g, coeffs, n_trials=40, seed=4,
                                 profile=profile, combos=combos, **kw)
        apart = [rep for combo in combos
                 for rep in kb.run_trials("interpolation", grid, g, coeffs, n_trials=40, seed=4,
                                          profile=profile, combos=[combo], **kw)]
        assert together == apart

    def test_unknown_lemma(self, grid, coeffs):
        with pytest.raises(ValueError):
            kb.run_trials("bogus", grid, G_S1, coeffs, n_trials=2, seed=0)

    @pytest.mark.parametrize("s", [2.0, 0.5])
    def test_existence_constant_positive(self, grid, coeffs, s):
        # a bound on the grid at every s, below the continuum lemmas' s >= 1 too
        c_s = kb.existence_constant(grid, kb.GevreyIndex(0.1, s), coeffs)
        assert math.isfinite(c_s) and c_s > 0


#: The three estimates feeding the contraction argument, whose largest bound is C_s.
EXISTENCE_LEMMAS = ("bilinear_tau", "trilinear_psi", "derivsq_psi")
BOUND_INDICES = [kb.GevreyIndex(0.1, 2.0), kb.GevreyIndex(0.5, 2.0), kb.GevreyIndex(0.0, 1.0)]


class TestConstantBound:
    @pytest.mark.parametrize("g", BOUND_INDICES, ids=str)
    @pytest.mark.parametrize("n", [64, 128])
    def test_equals_direct_sum(self, coeffs, n, g):
        grid = kb.SpectralGrid(n, 16.0 * np.pi)
        for lemma_id in EXISTENCE_LEMMAS:
            arity, _, kind, differentiate = MULTILINEAR[lemma_id]
            symbol = kb.evaluate_symbol(kind, fft_wavenumbers(grid), coeffs)
            want = cauchy_schwarz_bound(grid, g.sigma, g.s, symbol, arity, differentiate)
            got = estimates.constant_bound(lemma_id, grid, g, coeffs)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), lemma_id

    @pytest.mark.parametrize("profile", ["band_limited", "exponential_decay"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_above_every_trial(self, coeffs, n, profile):
        grid = kb.SpectralGrid(n, 16.0 * np.pi)
        kw = {"rate": 0.5} if profile == "exponential_decay" else {}
        for g in BOUND_INDICES:
            for lemma_id in EXISTENCE_LEMMAS:
                [report] = kb.run_trials(lemma_id, grid, g, coeffs, n_trials=256, seed=n,
                                         profile=profile, **kw)
                bound = estimates.constant_bound(lemma_id, grid, g, coeffs)
                assert report.ratio_max <= bound, (lemma_id, g)

    @pytest.mark.parametrize("g", [i for i in BOUND_INDICES if i.sigma > 0.0], ids=str)
    def test_converges_under_refinement(self, coeffs, g):
        coarse, fine = (kb.SpectralGrid(n, 16.0 * np.pi) for n in (1024, 4096))
        for lemma_id in EXISTENCE_LEMMAS:
            bound = estimates.constant_bound(lemma_id, fine, g, coeffs)
            assert estimates.constant_bound(lemma_id, coarse, g, coeffs) == pytest.approx(
                bound, rel=1e-3
            ), lemma_id

    def test_grid_stable_at_s_zero(self, coeffs):
        # at sigma = 0.5 the tilted terms past n = 1024 are below round-off of the sums
        g = kb.GevreyIndex(0.5, 0.0)
        coarse, fine = (kb.existence_constant(kb.SpectralGrid(n, 16.0 * np.pi), g, coeffs)
                        for n in (1024, 4096))
        assert coarse == pytest.approx(fine, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [-40.0, -200.0])
    def test_overflow_raises(self, small_grid, coeffs, s):
        # 1/w^2 = <xi>^{-2s} overflows at a very negative s: the bound raises rather than
        # return a NaN or a sum that lost its overflowed terms, and warns of nothing
        g = kb.GevreyIndex(0.1, s)
        with pytest.raises(kb.NormOverflowError, match=f"overflows at s = {s}"):
            kb.existence_constant(small_grid, g, coeffs)
        with pytest.raises(kb.NormOverflowError, match="^the trilinear_psi bound overflows"):
            estimates.constant_bound("trilinear_psi", small_grid, g, coeffs)

    def test_existence_constant_is_largest_bound(self, grid, coeffs):
        g = kb.GevreyIndex(0.5, 2.0)
        bounds = [estimates.constant_bound(one, grid, g, coeffs) for one in EXISTENCE_LEMMAS]
        assert kb.existence_constant(grid, g, coeffs) == max(bounds)


def _reference_streams(seed):
    """A campaign's (normals, phases) by definition: children 0 and 1 of SeedSequence(seed)."""
    return tuple(np.random.default_rng(kid) for kid in np.random.SeedSequence(seed).spawn(2))


def _reference_field(grid, streams, profile, cutoff=None, rate=None, power=None, jitter=0.2):
    """The next field of the streams, drawn one value after another and assembled on its own."""
    normals, phases = streams
    half = grid.n_modes // 2
    xi_pos = np.pi * np.arange(1, half) / grid.half_length
    pos = np.zeros(half - 1, dtype=complex)
    if profile == "band_limited":
        live = min(half // 4 if cutoff is None else cutoff, half - 1)
        re = normals.standard_normal(live)
        im = normals.standard_normal(live)
        pos[:live] = (re + 1j * im) / np.sqrt(2.0)
        c0 = normals.standard_normal()
    else:
        log_jitter = jitter * normals.standard_normal(half - 1)
        if profile == "exponential_decay":
            mags = np.exp(-rate * xi_pos + log_jitter)
        else:
            mags = kb.bracket(xi_pos) ** (-power) * np.exp(log_jitter)
        c0 = np.exp(jitter * normals.standard_normal())
        pos = mags * np.exp(1j * phases.uniform(0.0, 2.0 * np.pi, half - 1))
    c = np.zeros(grid.n_modes, dtype=complex)
    c[1:half] = pos
    c[half + 1 :] = np.conj(pos[::-1])
    c[0] = c0
    return c


PROFILE_KW = {
    "band_limited": {"cutoff": 20},
    "exponential_decay": {"rate": 0.5},
    "polynomial_decay": {"power": 2.0},
}
G_CAMPAIGN = kb.GevreyIndex(0.1, 1.0)
COMBO = (0.0, 2.0, 0.25)


def _trial_statistic(lemma_id, grid, trial, coeffs):
    """One trial's value from its half-layout fields (arity, n/2+1): the campaign kernel on a
    block of one trial."""
    arity, [kernel] = campaign(lemma_id, grid, G_CAMPAIGN, coeffs, [COMBO])
    return float(kernel(trial[None] if arity else trial)[0])


def _per_trial_value(lemma_id, grid, coeffs, streams, profile="band_limited", **kw):
    """The next trial of the streams: its fields drawn one at a time, in order."""
    arity = MULTILINEAR[lemma_id][0] if lemma_id in MULTILINEAR else 1
    fields = [_reference_field(grid, streams, profile, **kw) for _ in range(arity)]
    return _trial_statistic(lemma_id, grid, fft_to_half(np.array(fields)), coeffs)


def _reference_values(lemma_id, grid, coeffs, seed, n_trials, profile="band_limited", **kw):
    """The per-trial values of a campaign, one trial after another from the streams of seed."""
    streams = _reference_streams(seed)
    return [_per_trial_value(lemma_id, grid, coeffs, streams, profile, **kw) for _ in range(n_trials)]


def _assert_campaign_close(lemma_id, got, want):
    got, want = np.asarray(got), np.asarray(want)
    if lemma_id == "interpolation":
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    elif lemma_id == "antisymmetry":
        assert np.all(got < 1e-12) and np.all(np.abs(got - want) < 1e-12)
    else:
        assert np.array_equal(got, want)


class TestBlockedCampaigns:
    """Blocks of trials give what the kernels give on one trial at a time, drawn in order."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_batched_rows_equal_single_draws(self, grid, profile):
        kw = PROFILE_KW[profile]
        batched = kb.random_fields(grid, profile, _reference_streams(9), 40, **kw)
        assert batched.shape == (40, grid.nyquist + 1)
        streams = _reference_streams(9)
        for row in batched:
            assert np.array_equal(row, fft_to_half(_reference_field(grid, streams, profile, **kw)))
        assert np.array_equal(batched[0], kb.random_fields(grid, profile, _streams(9), 1, **kw)[0])

    @pytest.mark.parametrize("lemma_id", CAMPAIGNS)
    def test_block_values_equal_per_row_functions(self, small_grid, coeffs, lemma_id):
        arity, [kernel] = campaign(lemma_id, small_grid, G_CAMPAIGN, coeffs, [COMBO])
        stack = kb.random_fields(small_grid, "band_limited", _reference_streams(4), TRIAL_BLOCK * max(arity, 1))
        stack = stack.reshape(TRIAL_BLOCK, max(arity, 1), -1)
        block = kernel(stack if arity else stack[:, 0])
        rows = [_trial_statistic(lemma_id, small_grid, trial, coeffs) for trial in stack]
        _assert_campaign_close(lemma_id, block, rows)

    @pytest.mark.parametrize("n_trials", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("lemma_id", CAMPAIGNS)
    def test_reports_equal_trial_by_trial_reference(self, small_grid, coeffs, lemma_id, n_trials):
        [rep] = kb.run_trials(lemma_id, small_grid, G_CAMPAIGN, coeffs, n_trials=n_trials, seed=17,
                              combos=[COMBO])
        values = _reference_values(lemma_id, small_grid, coeffs, 17, n_trials)
        _assert_campaign_close(lemma_id, rep.ratio_max, max(values))
        _assert_campaign_close(lemma_id, rep.ratio_mean, sum(values) / n_trials)

    def test_fine_grid_blocks_match_reference(self, coeffs):
        fine = kb.SpectralGrid(1024, 16.0 * np.pi)
        assert _trials_per_block(fine) == 8
        [rep] = kb.run_trials("trilinear_psi", fine, G_CAMPAIGN, coeffs, n_trials=9, seed=2)
        values = _reference_values("trilinear_psi", fine, coeffs, 2, 9)
        assert rep.ratio_max == max(values)
        assert rep.ratio_mean == sum(values) / 9

    @pytest.mark.parametrize("profile", ["exponential_decay", "polynomial_decay"])
    def test_decay_profiles_match_reference(self, small_grid, coeffs, profile):
        kw = PROFILE_KW[profile]
        [rep] = kb.run_trials("trilinear_psi", small_grid, G_CAMPAIGN, coeffs, n_trials=40, seed=5,
                              profile=profile, **kw)
        values = _reference_values("trilinear_psi", small_grid, coeffs, 5, 40, profile, **kw)
        assert rep.ratio_max == max(values)
        assert rep.ratio_mean == sum(values) / 40

    @pytest.mark.parametrize("profile", PROFILES)
    def test_reports_independent_of_block_size(self, small_grid, coeffs, monkeypatch, profile):
        def reports():
            return [
                kb.run_trials(lemma_id, small_grid, G_CAMPAIGN, coeffs, n_trials=40, seed=6,
                              profile=profile, **PROFILE_KW[profile])
                for lemma_id in ("trilinear_psi", "splitting_r1")
            ]

        by_block = []
        for size in (1, 7, 32):
            monkeypatch.setattr(estimates, "TRIAL_BLOCK", size)
            assert _trials_per_block(small_grid) == size
            by_block.append(reports())
        assert by_block[0] == by_block[1] == by_block[2]

    def test_band_limited_trial_is_grid_independent(self):
        # at a fixed cutoff a trial draws the same values on every grid, so it is one field
        rows = [
            kb.random_fields(kb.SpectralGrid(n, 16.0 * np.pi), "band_limited", _reference_streams(8), 3,
                             cutoff=20)
            for n in (128, 256, 512)
        ]
        for row in rows[1:]:
            assert np.array_equal(row[:, :21], rows[0][:, :21])
        assert all(np.count_nonzero(row[:, 21:]) == 0 for row in rows)

    def test_checks_kept(self, small_grid, coeffs):
        with pytest.raises(ValueError, match="requires s >="):
            kb.run_trials("derivsq_psi", small_grid, kb.GevreyIndex(0.1, 0.5), coeffs, n_trials=2)
        with pytest.raises(kb.NormOverflowError):
            kb.run_trials("bilinear_tau", small_grid, kb.GevreyIndex(50.0, 1.0), coeffs, n_trials=2)
        with pytest.raises(ValueError, match="s1 <= s2"):
            kb.run_trials("interpolation", small_grid, G_CAMPAIGN, coeffs, n_trials=2,
                          combos=[(2.0, 0.0, 0.5)])
        with pytest.raises(ValueError, match="theta"):
            kb.run_trials("interpolation", small_grid, G_CAMPAIGN, coeffs, n_trials=2,
                          combos=[(0.0, 2.0, 1.5)])
        with pytest.raises(ValueError, match="n_trials"):
            kb.run_trials("bilinear_tau", small_grid, G_CAMPAIGN, coeffs, n_trials=0)
        with pytest.raises(kb.SymmetryError):
            _antisymmetry(kb.Spectrum(small_grid, np.full(small_grid.nyquist + 1, 1j)), coeffs)

    def test_working_set_bounded_by_block(self, grid, coeffs):
        kb.run_trials("trilinear_psi", grid, G_CAMPAIGN, coeffs, n_trials=1)  # fill plan and symbol caches

        def peak(n_trials):
            tracemalloc.start()
            try:
                kb.run_trials("trilinear_psi", grid, G_CAMPAIGN, coeffs, n_trials=n_trials, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1024) <= 1.5 * peak(64)


def _oracle_value(lemma_id, grid, coeffs, fields):
    """One trial's value from FFT-layout fields: products by direct convolution, norms by
    Parseval sums over every mode."""
    xi = fft_wavenumbers(grid)
    sigma, s = G_CAMPAIGN.sigma, G_CAMPAIGN.s

    def norm(c, sigma, s):
        weight = (1.0 + np.abs(xi)) ** (2.0 * s) * np.exp(2.0 * sigma * (1.0 + np.abs(xi)))
        return np.sqrt(2.0 * grid.half_length * np.sum(weight * np.abs(c) ** 2))

    if lemma_id in MULTILINEAR:
        _, _, kind, differentiate = MULTILINEAR[lemma_id]
        operands = fields
        if differentiate:
            operands = [1j * xi * c for c in fields]
            for c in operands:
                c[grid.nyquist] = 0.0
        product = convolve_project(grid, *operands)
        return norm(kb.evaluate_symbol(kind, xi, coeffs) * product, sigma, s) / np.prod(
            [norm(c, sigma, s) for c in fields]
        )
    (c,) = fields
    if lemma_id == "interpolation":
        s1, s2, theta = COMBO
        mid = theta * s1 + (1.0 - theta) * s2
        return norm(c, sigma, mid) / (norm(c, sigma, s1) ** theta * norm(c, sigma, s2) ** (1.0 - theta))
    if lemma_id == "splitting_r1":
        return norm(c, sigma, s) / (norm(c, 0.0, s) + sigma * norm(c, sigma, s + 1.0))
    phi = kb.evaluate_symbol("phi", xi, coeffs)
    phi[grid.nyquist] = 0.0
    inner = np.sum(c * np.conj(1j * phi * c)).real
    return abs(inner) / np.sum(np.abs(c) ** 2)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("lemma_id", CAMPAIGNS)
def test_kernels_match_full_layout_oracle(small_grid, coeffs, lemma_id, profile):
    # each kernel on half-layout draws against the estimate written out in FFT layout
    arity, [kernel] = campaign(lemma_id, small_grid, G_CAMPAIGN, coeffs, [COMBO])
    trials = kb.random_fields(small_grid, profile, _streams(12), 8 * max(arity, 1), **PROFILE_KW[profile])
    trials = trials.reshape(8, max(arity, 1), -1)
    got = kernel(trials if arity else trials[:, 0])
    want = [
        _oracle_value(lemma_id, small_grid, coeffs, [half_to_fft(d) for d in trial])
        for trial in trials
    ]
    if lemma_id == "antisymmetry":
        assert np.all(got < 1e-12) and np.all(np.abs(got - np.array(want)) < 1e-12)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
