import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdvbbm as kb
from kdvbbm import analyticity, dynamics, norms
from draws import random_spectrum
from oracles import fft_to_half, fft_wavenumbers, half_to_fft, printed_lower_bound, radius_fit


class TestEstimateRadius:
    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 1.0])
    def test_synthetic_decay_recovered(self, grid, rate):
        u = kb.gevrey_synthetic(grid, rate)
        fit = kb.estimate_radius(u)
        assert fit.defined
        assert fit.sigma_hat == pytest.approx(rate, rel=0.02)
        assert fit.r_squared > 0.999

    def test_single_mode_undefined(self, grid):
        fit = kb.estimate_radius(kb.cos_mode(grid, 3, 1.0))
        assert not fit.defined
        assert fit.reason is not None
        assert fit.n_points < 8

    def test_zero_spectrum_undefined(self, grid):
        z = kb.Spectrum(grid, np.zeros(grid.nyquist + 1, complex))
        assert not kb.estimate_radius(z).defined

    def test_flat_spectrum_gives_zero(self, grid):
        c = np.ones(grid.n_modes, complex)
        fit = kb.estimate_radius(kb.Spectrum(grid, fft_to_half(c)))
        assert fit.defined
        assert fit.sigma_hat == 0.0

    def test_scale_invariance(self, grid):
        u = random_spectrum(grid, "exponential_decay", 4, rate=0.4)
        a = kb.estimate_radius(u)
        b = kb.estimate_radius(kb.Spectrum(grid, 7.3 * u.half))
        assert b.sigma_hat == pytest.approx(a.sigma_hat, rel=1e-12)

    @pytest.mark.parametrize(
        "rate,roll_off", [(0.1, 0.0), (0.3, 0.0), (0.5, 0.0), (1.0, 0.0), (0.6, 2.0), (0.6, 4.0)]
    )
    def test_line_equals_polyfit(self, grid, rate, roll_off):
        # the C09 spectra and the rolled-off datum of the radius runs, fitted by numpy's
        # least-squares polynomial on the same band
        u = kb.gevrey_synthetic(grid, rate, roll_off=roll_off)
        fit = kb.estimate_radius(u)
        mags = np.abs(half_to_fft(u.half))
        modes = np.fft.fftfreq(grid.n_modes, 1.0 / grid.n_modes)
        mask = (np.abs(modes) >= 2) & (mags > 1e-8 * mags.max())
        x, y = np.abs(fft_wavenumbers(grid)[mask]), np.log(mags[mask])
        slope, intercept = np.polyfit(x, y, 1)
        r_squared = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
        assert fit.n_points == int(np.count_nonzero(mask))
        assert -fit.sigma_hat == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)
        assert fit.r_squared == pytest.approx(r_squared, rel=1e-12)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 1.0])
    def test_c09_data_match_fft_layout_fit(self, grid, rate):
        u = kb.gevrey_synthetic(grid, rate)
        sigma_hat, n_points = radius_fit(grid, half_to_fft(u.half))
        fit = kb.estimate_radius(u)
        assert fit.n_points == n_points
        assert fit.sigma_hat == pytest.approx(sigma_hat, rel=1e-12)

    @pytest.mark.parametrize("nyquist", [0.3 - 0.2j, 1e-9])
    def test_unpaired_mode_counts_once(self, grid, nyquist):
        # d_{n/2} holds half of c_{-n/2}, which is one point of the fit, where each other mode
        # is two (k and -k); a c_{-n/2} below the noise floor is left out
        c = half_to_fft(random_spectrum(grid, "exponential_decay", 2, rate=0.05).half)
        c[grid.nyquist] = nyquist
        sigma_hat, n_points = radius_fit(grid, c)
        fit = kb.estimate_radius(kb.Spectrum(grid, fft_to_half(c)))
        assert fit.n_points == n_points == 2 * (grid.nyquist - 2) + (abs(nyquist) > 1e-8)
        assert fit.sigma_hat == pytest.approx(sigma_hat, rel=1e-12)

    @pytest.mark.parametrize("top, defined", [(4, False), (5, True)])
    def test_need_eight_points_counts_pairs(self, small_grid, top, defined):
        # modes 2..4 and the unpaired mode are 7 points, one mode more makes 9
        c = np.zeros(small_grid.n_modes, complex)
        for k in range(2, top + 1):
            c[k] = c[-k] = np.exp(-0.5 * k)
        c[small_grid.nyquist] = 1e-3
        fit = kb.estimate_radius(kb.Spectrum(small_grid, fft_to_half(c)))
        assert (fit.defined, fit.n_points) == (defined, radius_fit(small_grid, c)[1])
        assert fit.n_points == 2 * (top - 1) + 1

    def test_undefined_reasons(self, grid):
        z = kb.Spectrum(grid, np.zeros(grid.nyquist + 1, complex))
        assert kb.estimate_radius(z).reason == "spectrum is identically zero"
        fit = kb.estimate_radius(kb.cos_mode(grid, 3, 1.0))
        assert fit.reason == "only 2 modes above the noise floor (need 8)"

    def test_noise_floor_excludes_tail(self, grid, monkeypatch):
        u = kb.gevrey_synthetic(grid, 1.0)
        monkeypatch.setattr(analyticity, "NOISE_FLOOR", 1e-12)
        wide = kb.estimate_radius(u)
        monkeypatch.setattr(analyticity, "NOISE_FLOOR", 1e-2)
        narrow = kb.estimate_radius(u)
        assert narrow.n_points < wide.n_points
        assert narrow.band[1] < wide.band[1]


class TestBoundFormulas:
    def test_lower_at_zero(self):
        b = kb.BoundInputs(0.7, 1.0, 1.0, 1.0)
        assert kb.lower_bound_radius(0.0, b) == pytest.approx(0.7)
        assert printed_lower_bound(0.0, b) == pytest.approx(0.7)

    def test_lower_frozen_values(self):
        b = kb.BoundInputs(1.0, 1.0, 1.0, 1.0)
        # exponent (X0 + 2 X0^2) t + (2/3) t^{3/2} Y0 + t^2 Y0^2 at t = 1: 14/3
        assert kb.lower_bound_radius(1.0, b) == pytest.approx(math.exp(-14.0 / 3.0), rel=1e-14)
        # the printed coefficient 3/2 gives exponent 5.5
        assert printed_lower_bound(1.0, b) == pytest.approx(math.exp(-5.5), rel=1e-14)

    def test_lower_y0_zero(self):
        # with Y0 = 0 the t^{3/2} term vanishes and the printed bound equals the exact one
        b = kb.BoundInputs(0.5, 0.8, 0.0, 1.0)
        for t in (0.0, 0.5, 2.0):
            expected = 0.5 * math.exp(-(0.8 + 2 * 0.64) * t)
            assert kb.lower_bound_radius(t, b) == pytest.approx(expected)
            assert printed_lower_bound(t, b) == pytest.approx(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(0.0, 50.0),
        x0=st.floats(0.0, 10.0),
        y0=st.floats(0.0, 10.0),
    )
    def test_exact_dominates_printed(self, t, x0, y0):
        b = kb.BoundInputs(1.0, x0, y0, 1.0)
        assert kb.lower_bound_radius(t, b) >= printed_lower_bound(t, b)

    def test_lower_envelope_log_concave(self):
        # the rate envelope increases in t, so the bound's log is concave
        b = kb.BoundInputs(0.5, 1.0, 1.0, 1.0)
        ts = np.linspace(0.1, 3.0, 30)
        logs = np.log([kb.lower_bound_radius(t, b) for t in ts])
        assert np.all(np.diff(logs, 2) <= 1e-12)

    def test_upper_frozen_value(self):
        # m = 2: the rate m + m^2 is 6
        b = kb.BoundInputs(0.5, 1.0, 0.0, 2.0)
        assert kb.upper_bound_radius(0.0, b) == 0.5
        assert kb.upper_bound_radius(0.1, b) == pytest.approx(0.5 * math.exp(-0.6), rel=1e-14)

    def test_upper_log_linear(self):
        b = kb.BoundInputs(0.5, 1.0, 0.0, 1.5)
        for t, dt in ((0.0, 0.7), (1.1, 0.3)):
            ratio = kb.upper_bound_radius(t + dt, b) / kb.upper_bound_radius(t, b)
            assert math.log(ratio) == pytest.approx(-3.75 * dt, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            kb.BoundInputs(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kb.BoundInputs(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kb.BoundInputs(1.0, 1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            kb.BoundInputs(1.0, 1.0, 1.0, math.nan)
        b = kb.BoundInputs(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kb.lower_bound_radius(-0.1, b)
        with pytest.raises(ValueError):
            kb.upper_bound_radius(-1.0, b)


def _rho_coefficients(delta1):
    """The Hamiltonian coefficients of the rho convention (gamma1 = 1/12) with this delta1."""
    return kb.CoefficientSet(1 / 12, 1 / 12, delta1, delta1 + 19 / 360 - 1 / 72, 7 / 48)


class TestEnergyFloor:
    """The upper bound's premise: G(sigma, s)^2 >= E / max(1, gamma1, delta1) = m^2."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(["band_limited", "exponential_decay", "polynomial_decay"]),
        sigma=st.floats(0.0, 2.0),
        s=st.floats(2.0, 6.0),
        delta1=st.floats(0.01, 3.0),
    )
    def test_gevrey_dominates_energy_at_s_ge_2(self, small_grid, seed, profile, sigma, s, delta1):
        u = random_spectrum(small_grid, profile, seed, rate=0.3, power=2.0)
        coeffs = _rho_coefficients(delta1)
        g = kb.gevrey_norm(u, kb.GevreyIndex(sigma, s))
        m_sq = kb.energy(u, coeffs) / max(1.0, coeffs.gamma1, coeffs.delta1)
        assert g * g >= m_sq * (1.0 - 1e-12)

    def test_fails_at_s_0(self, small_grid, coeffs):
        # at s = 0 the weight e^{2 sigma <xi>} = e^{1.8} at xi = 8 is below the energy's
        # 1 + 64/12 + 4096/20 = 211.1, which is why the upper-bound check skips there
        u = kb.cos_mode(small_grid, 8, 1.0)
        m_sq = kb.energy(u, coeffs) / max(1.0, coeffs.gamma1, coeffs.delta1)
        assert kb.gevrey_norm(u, kb.GevreyIndex(0.1, 0.0)) ** 2 < m_sq / 30
        assert kb.gevrey_norm(u, kb.GevreyIndex(0.1, 2.0)) ** 2 > m_sq


class TestSigmaTracking:
    """The shrinkage law integrated along a march, through tracked_run."""

    @staticmethod
    def _sigmas(eta0, T, dt, coeffs, sigma0, **kw):
        g = kb.GevreyIndex(sigma0, 2.0)
        run = kb.tracked_run(eta0, T, dt, coeffs, g, record_every=round(T / dt), **kw)
        return run.sigma.tolist()

    def test_zero_solution_constant(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.nyquist + 1, complex))
        assert self._sigmas(z, 1.0, 0.5, coeffs, 0.4) == [0.4, 0.4, 0.4]

    def test_small_datum_strictly_decreasing(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        sig = np.array(self._sigmas(eta0, 1.0, 0.01, coeffs, 0.1))
        assert np.all(np.diff(sig) < 0)
        assert sig[-1] > 0

    def test_substep_self_convergence(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.05)
        coarse = self._sigmas(eta0, 1.0, 0.01, coeffs, 0.2, max_rel_step=0.01)[-1]
        fine = self._sigmas(eta0, 1.0, 0.01, coeffs, 0.2, max_rel_step=0.005)[-1]
        assert abs(coarse - fine) / fine < 0.005

    def test_collapse_is_measured(self, grid, coeffs):
        # a huge norm drives sigma through the resolvable radius pi/L within one step; the
        # tracker integrates on to T and leaves judging the crossing to its caller
        eta0 = kb.cos_mode(grid, 1, 50.0)
        run = kb.tracked_run(eta0, 1e-3, 1e-3, coeffs, kb.GevreyIndex(0.3, 2.0), max_rel_step=0.25)
        t_end, sigma_end = run.t[-1], run.sigma[-1]
        assert t_end == pytest.approx(1e-3)
        assert 0.0 < sigma_end < np.pi / grid.half_length

    def test_sigma0_validation(self, grid, coeffs):
        u = kb.cos_mode(grid, 1, 0.1)
        with pytest.raises(ValueError):
            kb.tracked_run(u, 0.1, 0.1, coeffs, kb.GevreyIndex(0.0, 2.0))


class TestSigmaPlan:
    """The sub-step count of a sigma step, which the command line caps for the first step."""

    def test_counts(self):
        plan = analyticity.sigma_substeps
        assert plan(0.0, 0.1, 0.01) == 1  # a zero datum still takes its one step
        assert plan(1.0, 0.5, 0.25) == 4  # (1 + 1) 0.5 / 0.25, exactly
        assert plan(1.0, 0.5, 0.3) == 4  # 3.33 rounded up
        assert plan(1e150, 1e10, 0.5) == math.inf  # the count overflows a float
        assert isinstance(plan(1.0, 0.5, 0.3), int)

    def test_advance_takes_the_planned_substeps(self, monkeypatch):
        # the norm is re-evaluated at each sub-step after the first
        calls = []
        monkeypatch.setattr(analyticity, "_profile_norm", lambda *args: calls.append(args) or 1.0)
        sigma = analyticity._advance_sigma(None, None, 0.5, 1.0, 0.5, 0.25)
        assert len(calls) == analyticity.sigma_substeps(1.0, 0.5, 0.25) - 1 == 3
        assert sigma == 0.5 * (1.0 - 2.0 * 0.125) ** 4


@pytest.fixture(scope="module")
def tracked(grid, coeffs):
    eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
    return kb.tracked_run(eta0, 1.0, 2e-3, coeffs, kb.GevreyIndex(0.5, 2.0), record_every=25)


class TestTrackedRun:
    @pytest.fixture
    def run(self, tracked):
        return tracked

    def test_ordering_checks(self, run):
        # the radius-ordering gates, at the slacks the command line judges them with
        sigmas, slack = run.sigma[run.recorded], 1.0 + 1e-12
        assert np.all(run.lower <= sigmas * slack)
        assert np.all(sigmas <= run.upper * slack)
        assert np.all(np.diff(sigmas) < 0.0)
        defined = [(f.sigma_hat, sg) for f, sg in zip(run.fits, sigmas) if f.defined]
        assert defined and all(hat >= 0.95 * sg for hat, sg in defined)

    def test_bound_inputs_derived(self, run, coeffs):
        traj = run.trajectory
        assert run.bounds.X0 == traj.gevrey[0]
        assert run.bounds.Y0 == 0.0  # G(t) never exceeds X0 on this run
        m_sq = float(np.min(traj.energy)) / max(1.0, coeffs.gamma1, coeffs.delta1)
        assert run.bounds.m == math.sqrt(m_sq)
        assert run.upper.tolist() == [kb.upper_bound_radius(t, run.bounds) for t in traj.t]
        assert run.upper_gap is None

    def test_lower_bound_hypothesis(self, run):
        # the lower bound holds because G(t) <= X0 + sqrt(t) Y0 along the run
        envelope = run.bounds.X0 + np.sqrt(run.trajectory.t) * run.bounds.Y0
        assert np.all(run.gevrey[run.recorded] <= envelope * (1 + 1e-12))

    def test_y0_reads_every_step(self, grid, coeffs, monkeypatch):
        # a bump of G at step 3, which record_every = 7 does not record, sets Y0
        real, bumps = analyticity._sigma_tracker, []

        def bumped(grid, g, max_rel_step, series):
            step = real(grid, g, max_rel_step, series)

            def wrapped(t, d):
                step(t, d)
                if len(series) == 4:
                    t, sigma, g = series[-1]
                    series[-1] = (t, sigma, g + 0.25)
                    bumps.append((t, g + 0.25))

            return wrapped

        monkeypatch.setattr(analyticity, "_sigma_tracker", bumped)
        eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
        run = kb.tracked_run(eta0, 0.02, 2e-3, coeffs, kb.GevreyIndex(0.5, 2.0), record_every=7)
        [(t3, g3)] = bumps
        assert t3 not in run.trajectory.t
        assert run.bounds.Y0 == (g3 - run.bounds.X0) / math.sqrt(t3) > 0.0

    @pytest.mark.parametrize(
        "s, coefficients, gap",
        [
            (1.5, kb.DEFAULT_COEFFICIENTS, "s = 1.5 < 2"),
            (
                2.0,
                kb.CoefficientSet(0.1, 1 / 6 - 0.1, 0.05, 0.05 + 19 / 360 - 0.1 / 6, (5 - 1.8) / 24),
                "not Hamiltonian (gamma != 7/48)",
            ),
        ],
        ids=["s-below-2", "not-hamiltonian"],
    )
    def test_no_upper_curve_where_it_does_not_hold(self, grid, s, coefficients, gap):
        eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
        run = kb.tracked_run(eta0, 0.02, 2e-3, coefficients, kb.GevreyIndex(0.5, s), record_every=5)
        assert run.upper is None
        assert gap in run.upper_gap
        assert run.bounds.m > 0.0 and run.lower.size == run.trajectory.t.size

    def test_one_norm_per_tracked_step(self, grid, coeffs, monkeypatch):
        # G(t_i, sigma_i) is evaluated once: it starts the next sigma step and is the
        # run's gevrey entry (no sub-stepping at this size, so nothing else is evaluated)
        calls = []

        def counting(profile, growth, sigma, _real=analyticity._profile_norm):
            calls.append(sigma)
            return _real(profile, growth, sigma)

        monkeypatch.setattr(analyticity, "_profile_norm", counting)
        eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
        kb.tracked_run(eta0, 0.1, 2e-3, coeffs, kb.GevreyIndex(0.5, 2.0), record_every=7)
        assert len(calls) == 50 + 1

    def test_record_gevrey_at_tracked_sigma(self, run):
        traj = run.trajectory
        states = _states(traj)
        assert run.t[run.recorded].tolist() == traj.t.tolist()
        sigmas = run.sigma[run.recorded]
        # the tracker reads G from its half-layout profile: equal at round-off
        assert run.gevrey[run.recorded].tolist() == pytest.approx(
            [kb.gevrey_norm(u, kb.GevreyIndex(sg, 2.0)) for sg, u in zip(sigmas, states)],
            rel=1e-14,
        )
        assert [f.sigma_hat for f in run.fits] == [kb.estimate_radius(u).sigma_hat for u in states]

    def test_records_final_at_sigma0(self, run):
        # the gevrey column is G at the fixed index (sigma0, s), as every other command's is
        for value, u in zip(run.trajectory.gevrey, _states(run.trajectory), strict=True):
            assert value == kb.gevrey_norm(u, kb.GevreyIndex(0.5, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.trajectory.gevrey = np.zeros_like(run.trajectory.gevrey)

    def test_final_step_recorded_off_stride(self, grid, coeffs):
        eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
        run = kb.tracked_run(eta0, 0.1, 2e-3, coeffs, kb.GevreyIndex(0.5, 2.0), record_every=7)
        times = run.trajectory.t.tolist()
        assert times == [i * 2e-3 for i in (0, 7, 14, 21, 28, 35, 42, 49, 50)]
        assert len(run.fits) == len(run.lower) == len(run.upper) == 9
        assert run.t[run.recorded].tolist() == times
        last = _states(run.trajectory)[-1]
        expected = kb.gevrey_norm(last, kb.GevreyIndex(run.sigma[run.recorded][-1], 2.0))
        assert run.gevrey[run.recorded][-1] == pytest.approx(expected, rel=1e-14)

    def test_csv_ready_series(self, run):
        assert len(run.lower) == run.trajectory.t.size
        assert run.t.size == run.sigma.size == run.gevrey.size == 501  # every step plus t = 0
        assert run.t[0] == 0.0 and run.t[-1] == pytest.approx(1.0)


def _states(traj):
    """The recorded states of a trajectory, one Spectrum per row."""
    return [kb.Spectrum(traj.grid, d) for d in traj.half]


def _exponential_state(n, half_length, seed, nyquist):
    """A real field with |c_k| ~ e^{-0.3 |xi_k|} and c_{-n/2} = nyquist, in FFT layout."""
    grid = kb.SpectralGrid(n, half_length)
    c = half_to_fft(random_spectrum(grid, "exponential_decay", seed, rate=0.3).half)
    c[grid.nyquist] = nyquist
    return grid, c


class TestSigmaTracker:
    @pytest.mark.parametrize("n,half_length", [(16, math.pi), (256, 16.0 * math.pi), (1024, 16.0 * math.pi)])
    @pytest.mark.parametrize("nyquist", [0.0, 0.3 - 0.2j])
    @pytest.mark.parametrize("sigma,s", [(0.5, 2.0), (0.1, 1.0), (1e-3, 0.0)])
    def test_profile_norm_equals_gevrey_norm(self, n, half_length, nyquist, sigma, s):
        grid, c = _exponential_state(n, half_length, n, nyquist)
        series = []
        analyticity._sigma_tracker(grid, kb.GevreyIndex(sigma, s), 0.01, series)(0.0, fft_to_half(c))
        assert series[0][:2] == (0.0, sigma)
        br = 1.0 + np.abs(fft_wavenumbers(grid))
        weights = br ** (2 * s) * np.exp(2 * sigma * br)
        expected = np.sqrt(2.0 * grid.half_length * np.sum(weights * np.abs(c) ** 2))
        assert series[0][2] == pytest.approx(expected, rel=1e-14)

    def test_sigma_series_matches_reference_tracker(self, coeffs):
        # a reference built on gevrey_norm of the states, with the same Euler rule and
        # sub-step count; the small max_rel_step makes every step sub-step
        grid = kb.SpectralGrid(128, 4.0 * math.pi)
        eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.05)
        sigma0, s, dt, max_rel_step = 0.5, 2.0, 1e-2, 2e-3
        run = kb.tracked_run(eta0, 0.2, dt, coeffs, kb.GevreyIndex(sigma0, s), max_rel_step=max_rel_step)
        states = _states(run.trajectory)  # every step is recorded

        def norm(state, sigma):
            return kb.gevrey_norm(state, kb.GevreyIndex(sigma, s))

        sigma, g = sigma0, norm(states[0], sigma0)
        sigmas, gevreys, substeps = [sigma], [g], 0
        for prev in states[:-1]:
            n_sub = max(1, math.ceil((g + g * g) * dt / max_rel_step))
            substeps += n_sub
            for i in range(n_sub):
                if i:
                    g = norm(prev, sigma)
                sigma = sigma * (1.0 - (g + g * g) * dt / n_sub)
            sigmas.append(sigma)
            g = norm(states[len(sigmas) - 1], sigma)
            gevreys.append(g)
        assert substeps > 2 * (len(states) - 1)
        assert run.t.tolist() == run.trajectory.t.tolist()
        np.testing.assert_allclose(run.sigma, sigmas, rtol=1e-13, atol=0)
        np.testing.assert_allclose(run.gevrey, gevreys, rtol=1e-13, atol=0)

    def test_weights_built_once_per_run(self, grid, coeffs, monkeypatch):
        # a per-step rebuild would make the count grow with the number of steps
        calls = []

        def counting(*args, _real=norms.gevrey_weights):
            calls.append(args)
            return _real(*args)

        for module in (analyticity, dynamics, norms):
            monkeypatch.setattr(module, "gevrey_weights", counting)
        eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
        counts = []
        for T in (0.02, 0.2):
            calls.clear()
            kb.tracked_run(eta0, T, 2e-3, coeffs, kb.GevreyIndex(0.5, 2.0), record_every=5)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3
