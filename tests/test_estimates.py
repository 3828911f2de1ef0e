import math
import tracemalloc

import numpy as np
import pytest

import kdvbbm as kb
from kdvbbm.estimates import (
    MULTILINEAR,
    PROFILES,
    TRIAL_BLOCK,
    _campaign,
    _interpolation_values,
    _multilinear_values,
    _splitting_parts,
    _trials_per_block,
)
from oracles import convolve_project

G_S0 = kb.GevreyIndex(0.0, 0.0)
G_S1 = kb.GevreyIndex(0.1, 1.0)


class TestRandomField:
    def test_deterministic(self, grid):
        a = kb.random_field(grid, "band_limited", 123)
        b = kb.random_field(grid, "band_limited", 123)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = kb.random_field(grid, "band_limited", 124)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_band_limited_cutoff(self, grid):
        u = kb.random_field(grid, "band_limited", 5, cutoff=10)
        high = np.abs(grid.modes) > 10
        assert np.all(u.coeffs[high] == 0)
        assert np.any(u.coeffs[~high] != 0)

    def test_hermitian_and_zero_nyquist(self, grid):
        for profile, kw in (
            ("band_limited", {}),
            ("exponential_decay", {"rate": 0.5}),
            ("polynomial_decay", {"power": 2.0}),
        ):
            u = kb.random_field(grid, profile, 6, **kw)
            assert u.hermitian_defect() < 1e-14
            assert u.coeffs[grid.nyquist] == 0

    def test_exponential_rate_recovered_on_average(self, grid):
        fits = [
            kb.estimate_radius(kb.random_field(grid, "exponential_decay", seed, rate=0.5)).sigma_hat
            for seed in range(100)
        ]
        assert np.mean(fits) == pytest.approx(0.5, rel=0.1)

    def test_profile_validation(self, grid):
        with pytest.raises(ValueError, match="unknown profile"):
            kb.random_field(grid, "white", 0)
        with pytest.raises(ValueError, match="rate"):
            kb.random_field(grid, "exponential_decay", 0)
        with pytest.raises(ValueError, match="power"):
            kb.random_field(grid, "polynomial_decay", 0)


def _ratio(lemma_id, fields, g, coeffs, strict=True):
    """The multilinear kernel on one trial of fields."""
    values = _multilinear_values(lemma_id, fields[0].grid, g, coeffs, strict)
    return float(values(np.array([[f.coeffs for f in fields]]))[0])


def _interpolation(u, s1, s2, theta, sigma):
    return float(_interpolation_values(u.grid, sigma, s1, s2, theta)(u.coeffs[None])[0])


def _splitting(u, s, r, sigma):
    """|J^{s,sigma}u|, |J^s u| and sigma^r |J^{s+r,sigma}u| of one field."""
    return (float(part[0]) for part in _splitting_parts(u.grid, s, r, sigma)(u.coeffs[None]))


def _antisymmetry(v, coeffs):
    _, residuals = _campaign("antisymmetry", v.grid, G_S0, coeffs, None)
    return float(residuals(v.coeffs[None])[0])


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
        prod = convolve_project(small_grid, u.coeffs, u.coeffs)
        xi = small_grid.wavenumbers
        weighted = kb.evaluate_symbol("omega", xi, coeffs) * prod
        num = np.sqrt(2 * small_grid.half_length * np.sum(np.abs(weighted) ** 2))
        den = kb.sobolev_norm(u, 0.0) ** 2
        expected = num / den
        got = _ratio("bilinear_omega", (u, u), G_S0, coeffs)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_range_enforced_in_strict_mode(self, small_grid, coeffs):
        u = kb.cos_mode(small_grid, 2, 1.0)
        g_neg = kb.GevreyIndex(0.0, -0.5)
        with pytest.raises(ValueError, match="requires s >="):
            _ratio("bilinear_omega", (u, u), g_neg, coeffs)
        ratio = _ratio("bilinear_omega", (u, u), g_neg, coeffs, strict=False)
        assert ratio > 0

    def test_zero_field_rejected(self, small_grid, coeffs):
        z = kb.Spectrum(small_grid, np.zeros(64, complex))
        with pytest.raises(ValueError, match="nonzero"):
            _ratio("bilinear_omega", (z, z), G_S0, coeffs)

    def test_trilinear_and_derivsq_run_in_range(self, grid, coeffs):
        g = kb.GevreyIndex(0.1, 2.0)
        kids = np.random.SeedSequence(0).spawn(3)
        fields = [kb.random_field(grid, "band_limited", k, cutoff=20) for k in kids]
        r3 = _ratio("trilinear_psi", fields, g, coeffs)
        r2 = _ratio("derivsq_psi", fields[:2], g, coeffs)
        assert np.isfinite(r3) and r3 > 0
        assert np.isfinite(r2) and r2 > 0


class TestInterpolation:
    def test_theta_one_exact(self, grid):
        u = kb.random_field(grid, "band_limited", 11)
        assert _interpolation(u, 0.0, 2.0, 1.0, 0.1) == 1.0

    def test_single_mode_equality(self, grid):
        u = kb.cos_mode(grid, 5, 1.0)
        ratio = _interpolation(u, 0.0, 2.0, 0.5, 0.2)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_fields_bounded_by_one(self, grid, seed):
        u = kb.random_field(grid, "band_limited", seed)
        assert _interpolation(u, 0.0, 2.0, 0.5, 0.1) <= 1.0 + 1e-12

    def test_validation(self, grid):
        u = kb.random_field(grid, "band_limited", 0)
        with pytest.raises(ValueError):
            _interpolation(u, 2.0, 0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            _interpolation(u, 0.0, 2.0, 1.5, 0.1)


class TestSplitting:
    def test_sigma_zero_trivial(self, grid):
        u = kb.random_field(grid, "band_limited", 2)
        lhs, sob, shifted = _splitting(u, 1.0, 1.0, 0.0)
        assert lhs <= sob + shifted + 1e-12 * (sob + shifted) + 1e-300
        assert shifted == 0.0
        assert lhs == pytest.approx(sob, rel=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_r1_unit_constants(self, grid, seed):
        # c1 = c2 = 1 holds at r = 1 (pointwise e^x <= 1 + x e^x plus Minkowski)
        u = kb.random_field(grid, "band_limited", seed)
        lhs, sob, shifted = _splitting(u, 1.0, 1.0, 0.1)
        assert lhs <= sob + shifted + 1e-12 * (sob + shifted) + 1e-300
        assert max(0.0, lhs - sob) / shifted <= 1.0

    def test_half_r_c2_grid_stable(self, coeffs):
        # the smallest c2 with c1 = 1 at r = 1/2 does not grow under grid refinement
        maxima = []
        for n in (256, 512):
            grid = kb.SpectralGrid(n, 16 * np.pi)
            kids = np.random.SeedSequence(77).spawn(100)
            c2 = max(
                max(0.0, lhs - sob) / shifted
                for lhs, sob, shifted in (
                    _splitting(kb.random_field(grid, "band_limited", k, cutoff=32), 1.0, 0.5, 0.1)
                    for k in kids
                )
            )
            maxima.append(c2)
        assert max(maxima) / min(maxima) < 2.0

    def test_validation(self, grid):
        u = kb.random_field(grid, "band_limited", 3)
        with pytest.raises(ValueError):
            _splitting(u, 0.0, -1.0, 0.1)


class TestAntisymmetry:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_fields(self, grid, coeffs, seed):
        v = kb.random_field(grid, "band_limited", seed)
        assert _antisymmetry(v, coeffs) < 1e-12

    def test_zero(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.n_modes, complex))
        assert _antisymmetry(z, coeffs) == 0.0

    def test_cos_mode_cancellation(self, small_grid, coeffs):
        v = kb.cos_mode(small_grid, 4, 1.0)
        assert _antisymmetry(v, coeffs) < 1e-14

    def test_unpaired_mode(self, small_grid, coeffs):
        # a real field may carry a real c_{-n/2}; the odd phi reads 0 there
        c = kb.cos_mode(small_grid, 1, 1.0).coeffs.copy()
        c[small_grid.nyquist] = 1e-3
        v = kb.Spectrum(small_grid, c)
        kb.transform_inverse(v)  # accepted as a real field
        assert _antisymmetry(v, coeffs) < 1e-14


class TestFailureDemo:
    def test_negative_s_grows_monotonically(self):
        demo = kb.failure_demo_bilinear(-0.5)
        assert demo.monotone
        ratios = [r for (_, _, r) in demo.rows]
        assert ratios == sorted(ratios)
        assert demo.growth_exponent > 0.5

    def test_zero_s_is_bounded_on_same_pairs(self, coeffs):
        ratios = []
        for k in (8, 16, 32, 64):
            grid = kb.SpectralGrid(max(64, 4 * k), np.pi)
            u = kb.cos_mode(grid, k, 1.0)
            v = kb.cos_mode(grid, k - 1, 1.0)
            ratios.append(_ratio("bilinear_omega", (u, v), G_S0, coeffs))
        assert max(ratios) / min(ratios) < 1.5

    def test_milder_s_grows_slower(self):
        mild = kb.failure_demo_bilinear(-0.1)
        steep = kb.failure_demo_bilinear(-1.0)
        assert mild.growth_exponent < steep.growth_exponent

    def test_validation(self):
        with pytest.raises(ValueError):
            kb.failure_demo_bilinear(0.5)
        with pytest.raises(ValueError):
            kb.failure_demo_bilinear(-0.5, ks=(1, 2))


class TestTrialCampaigns:
    def test_deterministic_reports(self, grid, coeffs):
        a = kb.run_trials("bilinear_omega", grid, G_S1, coeffs, n_trials=50, seed=3)
        b = kb.run_trials("bilinear_omega", grid, G_S1, coeffs, n_trials=50, seed=3)
        assert a == b

    def test_report_shape(self, grid, coeffs):
        rep = kb.run_trials("interpolation", grid, kb.GevreyIndex(0.1, 0.0), coeffs,
                            n_trials=20, seed=1, combo=(0.0, 2.0, 0.5))
        assert rep.ratio_max >= rep.ratio_mean >= 0.0
        row = rep.csv_row()
        assert row["lemma_id"] == "interpolation"
        assert row["n_trials"] == 20

    @pytest.mark.parametrize("profile, kw", [
        ("band_limited", {}),
        ("exponential_decay", {"rate": 0.5}),
        ("polynomial_decay", {"power": 2.0, "cutoff": 20}),
    ])
    def test_combos_share_draws(self, grid, coeffs, profile, kw):
        # a tuple of combos evaluates every combo on one set of draws
        g = kb.GevreyIndex(0.1, 0.0)
        combos = ((0.0, 2.0, 0.5), (1.0, 3.0, 0.5), (0.5, 2.5, 1.0 / 3.0))
        together = kb.run_trials("interpolation", grid, g, coeffs, n_trials=40, seed=4,
                                 profile=profile, combo=combos, **kw)
        apart = [kb.run_trials("interpolation", grid, g, coeffs, n_trials=40, seed=4,
                               profile=profile, combo=combo, **kw) for combo in combos]
        assert together == apart

    def test_unknown_lemma(self, grid, coeffs):
        with pytest.raises(ValueError):
            kb.run_trials("bogus", grid, G_S1, coeffs, n_trials=2, seed=0)

    def test_existence_constant_positive(self, grid, coeffs):
        c_s = kb.existence_constant(grid, kb.GevreyIndex(0.1, 2.0), coeffs,
                                    n_trials=20, seed=11)
        assert c_s > 0
        with pytest.raises(ValueError):
            kb.existence_constant(grid, kb.GevreyIndex(0.1, 0.5), coeffs)


def _reference_field(grid, profile, seed, cutoff=None, rate=None, power=None, jitter=0.2):
    """One field drawn and assembled on its own, the per-trial definition of random_field."""
    rng = np.random.default_rng(seed)
    half = grid.n_modes // 2
    xi_pos = np.pi * np.arange(1, half) / grid.half_length
    if profile == "band_limited":
        re = rng.standard_normal(half - 1)
        im = rng.standard_normal(half - 1)
        pos = (re + 1j * im) / np.sqrt(2.0)
        pos[np.arange(1, half) > (half // 4 if cutoff is None else cutoff)] = 0.0
        c0 = rng.standard_normal()
    else:
        if profile == "exponential_decay":
            mags = np.exp(-rate * xi_pos + jitter * rng.standard_normal(half - 1))
        else:
            mags = kb.bracket(xi_pos) ** (-power) * np.exp(jitter * rng.standard_normal(half - 1))
        pos = mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, half - 1))
        c0 = math.exp(jitter * rng.standard_normal())
    c = np.zeros(grid.n_modes, dtype=complex)
    c[1:half] = pos
    c[half + 1 :] = np.conj(pos[::-1])
    c[0] = c0
    return 1.0 * c


PROFILE_KW = {
    "band_limited": {"cutoff": 20},
    "exponential_decay": {"rate": 0.5},
    "polynomial_decay": {"power": 2.0},
}
CAMPAIGNS = (*MULTILINEAR, "interpolation", "splitting_r1", "antisymmetry")
G_CAMPAIGN = kb.GevreyIndex(0.1, 1.0)
COMBO = (0.0, 2.0, 0.25)


def _trial_statistic(lemma_id, fields, coeffs):
    """One trial's value from its fields: the campaign kernel on a block of one trial."""
    arity, kernel = _campaign(lemma_id, fields[0].grid, G_CAMPAIGN, coeffs, COMBO)
    trial = np.array([f.coeffs for f in fields])
    return float(kernel(trial[None] if arity else trial)[0])


def _per_trial_value(lemma_id, grid, coeffs, child, profile="band_limited", **kw):
    """One trial, its fields seeded as run_trials seeds them."""
    kids = child.spawn(MULTILINEAR[lemma_id][0]) if lemma_id in MULTILINEAR else [child]
    fields = [kb.random_field(grid, profile, kid, **kw) for kid in kids]
    return _trial_statistic(lemma_id, fields, coeffs)


def _assert_campaign_close(lemma_id, got, want):
    got, want = np.asarray(got), np.asarray(want)
    if lemma_id == "interpolation":
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    elif lemma_id == "antisymmetry":
        assert np.all(got < 1e-12) and np.all(np.abs(got - want) < 1e-12)
    else:
        assert np.array_equal(got, want)


class TestBlockedCampaigns:
    """Blocks of trials give what the kernels give on one trial at a time."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_batched_rows_equal_single_draws(self, grid, profile):
        kw = PROFILE_KW[profile]
        batched = kb.random_fields(grid, profile, np.random.SeedSequence(9).spawn(40), **kw)
        for row, kid in zip(batched, np.random.SeedSequence(9).spawn(40)):
            assert np.array_equal(row, _reference_field(grid, profile, kid, **kw))
            assert np.array_equal(row, kb.random_field(grid, profile, kid, **kw).coeffs)

    @pytest.mark.parametrize("lemma_id", CAMPAIGNS)
    def test_block_values_equal_per_row_functions(self, small_grid, coeffs, lemma_id):
        arity, kernel = _campaign(lemma_id, small_grid, G_CAMPAIGN, coeffs, COMBO)
        kids = np.random.SeedSequence(4).spawn(TRIAL_BLOCK * max(arity, 1))
        stack = kb.random_fields(small_grid, "band_limited", kids).reshape(TRIAL_BLOCK, max(arity, 1), -1)
        block = kernel(stack if arity else stack[:, 0])
        rows = [
            _trial_statistic(lemma_id, [kb.Spectrum(small_grid, c) for c in trial], coeffs)
            for trial in stack
        ]
        _assert_campaign_close(lemma_id, block, rows)

    @pytest.mark.parametrize("n_trials", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("lemma_id", CAMPAIGNS)
    def test_reports_equal_trial_by_trial_reference(self, small_grid, coeffs, lemma_id, n_trials):
        rep = kb.run_trials(lemma_id, small_grid, G_CAMPAIGN, coeffs, n_trials=n_trials, seed=17,
                            combo=COMBO if lemma_id == "interpolation" else None)
        # fresh children: spawning a grandchild advances its parent's counter
        values = [
            _per_trial_value(lemma_id, small_grid, coeffs, child)
            for child in np.random.SeedSequence(17).spawn(n_trials)
        ]
        _assert_campaign_close(lemma_id, rep.ratio_max, max(values))
        _assert_campaign_close(lemma_id, rep.ratio_mean, sum(values) / n_trials)

    def test_fine_grid_blocks_match_reference(self, coeffs):
        fine = kb.SpectralGrid(1024, 16.0 * np.pi)
        assert _trials_per_block(fine) == 8
        rep = kb.run_trials("trilinear_psi", fine, G_CAMPAIGN, coeffs, n_trials=9, seed=2)
        values = [
            _per_trial_value("trilinear_psi", fine, coeffs, child)
            for child in np.random.SeedSequence(2).spawn(9)
        ]
        assert rep.ratio_max == max(values)
        assert rep.ratio_mean == sum(values) / 9

    @pytest.mark.parametrize("profile", ["exponential_decay", "polynomial_decay"])
    def test_decay_profiles_match_reference(self, small_grid, coeffs, profile):
        kw = PROFILE_KW[profile]
        rep = kb.run_trials("trilinear_psi", small_grid, G_CAMPAIGN, coeffs, n_trials=40, seed=5,
                            profile=profile, **kw)
        values = [
            _per_trial_value("trilinear_psi", small_grid, coeffs, child, profile, **kw)
            for child in np.random.SeedSequence(5).spawn(40)
        ]
        assert rep.ratio_max == max(values)
        assert rep.ratio_mean == sum(values) / 40

    def test_checks_kept(self, small_grid, coeffs):
        with pytest.raises(ValueError, match="requires s >="):
            kb.run_trials("derivsq_psi", small_grid, kb.GevreyIndex(0.1, 0.5), coeffs, n_trials=2)
        with pytest.raises(kb.NormOverflowError):
            kb.run_trials("bilinear_tau", small_grid, kb.GevreyIndex(50.0, 1.0), coeffs, n_trials=2)
        with pytest.raises(ValueError, match="s1 <= s2"):
            kb.run_trials("interpolation", small_grid, G_CAMPAIGN, coeffs, n_trials=2,
                          combo=(2.0, 0.0, 0.5))
        with pytest.raises(ValueError, match="theta"):
            kb.run_trials("interpolation", small_grid, G_CAMPAIGN, coeffs, n_trials=2,
                          combo=(0.0, 2.0, 1.5))
        with pytest.raises(ValueError, match="n_trials"):
            kb.run_trials("bilinear_tau", small_grid, G_CAMPAIGN, coeffs, n_trials=0)
        skewed = kb.Spectrum(small_grid, np.full(small_grid.n_modes, 1j))
        with pytest.raises(kb.SymmetryError):
            _antisymmetry(skewed, coeffs)

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
