import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdvbbm as kb
from kdvbbm import analyticity


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
        z = kb.Spectrum(grid, np.zeros(grid.n_modes, complex))
        assert not kb.estimate_radius(z).defined

    def test_flat_spectrum_gives_zero(self, grid):
        c = np.ones(grid.n_modes, complex)
        fit = kb.estimate_radius(kb.Spectrum(grid, c))
        assert fit.defined
        assert fit.sigma_hat == 0.0

    def test_scale_invariance(self, grid):
        u = kb.random_field(grid, "exponential_decay", 4, rate=0.4)
        a = kb.estimate_radius(u)
        b = kb.estimate_radius(kb.Spectrum(grid, 7.3 * u.coeffs))
        assert b.sigma_hat == pytest.approx(a.sigma_hat, rel=1e-12)

    def test_noise_floor_excludes_tail(self, grid):
        u = kb.gevrey_synthetic(grid, 1.0)
        wide = kb.estimate_radius(u, noise_floor=1e-12)
        narrow = kb.estimate_radius(u, noise_floor=1e-2)
        assert narrow.n_points < wide.n_points
        assert narrow.band[1] < wide.band[1]


class TestBoundFormulas:
    def test_lower_at_zero(self):
        b = kb.BoundInputs(0.7, 1.0, 1.0, 1.0, 1.0)
        assert kb.lower_bound_radius(0.0, b, "exact_integral") == pytest.approx(0.7)
        assert kb.lower_bound_radius(0.0, b, "printed") == pytest.approx(0.7)

    def test_lower_frozen_values(self):
        b = kb.BoundInputs(1.0, 1.0, 1.0, 1.0, 1.0)
        # exponent (X0 + 2 X0^2) t + (2/3) t^{3/2} Y0 + t^2 Y0^2 at t = 1: 14/3
        assert kb.lower_bound_radius(1.0, b, "exact_integral") == pytest.approx(
            math.exp(-14.0 / 3.0), rel=1e-14
        )
        # printed coefficient 3/2 gives exponent 5.5
        assert kb.lower_bound_radius(1.0, b, "printed") == pytest.approx(
            math.exp(-5.5), rel=1e-14
        )

    def test_lower_y0_zero(self):
        b = kb.BoundInputs(0.5, 0.8, 0.0, 1.0, 1.0)
        for t in (0.0, 0.5, 2.0):
            expected = 0.5 * math.exp(-(0.8 + 2 * 0.64) * t)
            assert kb.lower_bound_radius(t, b, "exact_integral") == pytest.approx(expected)
            assert kb.lower_bound_radius(t, b, "printed") == pytest.approx(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(0.0, 50.0),
        x0=st.floats(0.0, 10.0),
        y0=st.floats(0.0, 10.0),
    )
    def test_exact_dominates_printed(self, t, x0, y0):
        b = kb.BoundInputs(1.0, x0, y0, 1.0, 1.0)
        assert kb.lower_bound_radius(t, b, "exact_integral") >= kb.lower_bound_radius(
            t, b, "printed"
        )

    def test_lower_envelope_log_concave(self):
        # the rate envelope increases in t, so the bound's log is concave
        b = kb.BoundInputs(0.5, 1.0, 1.0, 1.0, 1.0)
        ts = np.linspace(0.1, 3.0, 30)
        logs = np.log([kb.lower_bound_radius(t, b) for t in ts])
        assert np.all(np.diff(logs, 2) <= 1e-12)

    def test_upper_frozen_value(self):
        b = kb.BoundInputs(0.5, 1.0, 0.0, 16 * math.pi, 1.0)
        assert kb.upper_bound_radius(0.0, b) == pytest.approx(0.5)
        assert kb.upper_bound_radius(0.1, b) == pytest.approx(
            0.5 * math.exp(-1.6 * math.pi), rel=1e-14
        )

    def test_upper_log_linear(self):
        b = kb.BoundInputs(0.5, 1.0, 0.0, 2.5, 1.3)
        for t, dt in ((0.0, 0.7), (1.1, 0.3)):
            ratio = kb.upper_bound_radius(t + dt, b) / kb.upper_bound_radius(t, b)
            assert math.log(ratio) == pytest.approx(-2.5 * dt, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            kb.BoundInputs(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kb.BoundInputs(1.0, -1.0, 1.0, 1.0, 1.0)
        b = kb.BoundInputs(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kb.lower_bound_radius(-0.1, b)
        with pytest.raises(ValueError):
            kb.lower_bound_radius(1.0, b, variant="bogus")
        with pytest.raises(ValueError):
            kb.upper_bound_radius(-1.0, b)


class TestSigmaTracking:
    """The shrinkage law integrated along a march, through tracked_run."""

    @staticmethod
    def _sigmas(eta0, T, dt, coeffs, sigma0, **kw):
        run = kb.tracked_run(eta0, T, dt, coeffs, sigma0, record_every=round(T / dt), **kw)
        return [s for (_, s) in run.sigma_series]

    def test_zero_solution_constant(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.n_modes, complex))
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

    def test_collapse_raises(self, grid, coeffs):
        # a huge norm forces sigma through the resolvable floor within one step
        eta0 = kb.cos_mode(grid, 1, 50.0)
        with pytest.raises(kb.StepCollapseError):
            kb.tracked_run(eta0, 1e-3, 1e-3, coeffs, sigma0=0.3, max_rel_step=0.25)

    def test_sigma0_validation(self, grid, coeffs):
        u = kb.cos_mode(grid, 1, 0.1)
        with pytest.raises(ValueError):
            kb.tracked_run(u, 0.1, 0.1, coeffs, sigma0=0.0)


class TestCalibrateBounds:
    """Y0 and c_upper by hand on a 4-point series with sigma0 0.5, X0 1 and h2 1; each
    sigma is given as its ratio to the envelope sigma0 e^{-h2^2 t} = 0.5 e^{-t}."""

    TIMES = np.array([0.0, 0.25, 1.0, 16.0])

    def _calibrate(self, gevreys, ratios, prefix_fraction):
        sigmas = 0.5 * np.exp(-self.TIMES) * np.array(ratios)
        return analyticity.calibrate_bounds(
            self.TIMES, sigmas, np.array(gevreys), 1.0, 1.0, 0.5, prefix_fraction
        )

    def test_prefix_fraction(self):
        # the prefix is (0, 1.6]: t = 16, with (G - X0)/sqrt(t) = 2 and ratio 3, is left out
        b = self._calibrate([1.0, 1.25, 1.8, 9.0], [1.0, 1.1, 1.2, 3.0], 0.1)
        assert (b.sigma0, b.X0, b.h2sq) == (0.5, 1.0, 1.0)
        assert b.Y0 == pytest.approx(1.1 * 0.8, rel=1e-12)  # max(0.25/0.5, 0.8/1)
        assert b.c_upper == pytest.approx(1.05 * 1.2, rel=1e-12)

    def test_zero_fraction_keeps_first_positive_record(self):
        b = self._calibrate([1.0, 1.25, 1.8, 9.0], [1.0, 1.1, 1.2, 3.0], 0.0)
        assert b.Y0 == pytest.approx(1.1 * 0.5, rel=1e-12)  # t = 0.25 alone
        assert b.c_upper == pytest.approx(1.05 * 1.1, rel=1e-12)

    def test_gevrey_never_above_x0(self):
        b = self._calibrate([1.0, 0.9, 0.8, 0.7], [1.0, 0.9, 0.9, 0.9], 0.1)
        assert b.Y0 == 0.0
        assert b.c_upper == 1.0  # 1.05 * 0.9 is below the floor


@pytest.fixture(scope="module")
def tracked(grid, coeffs):
    eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
    return kb.tracked_run(eta0, 1.0, 2e-3, coeffs, sigma0=0.5, record_every=25)


class TestTrackedRun:
    @pytest.fixture
    def run(self, tracked):
        return tracked

    def test_ordering_checks(self, run):
        # the radius-ordering gates, at the slacks the command line judges them with
        sigmas, slack = run.sigmas, 1.0 + 1e-12
        assert np.all(run.lower <= sigmas * slack)
        assert np.all(sigmas <= run.upper * slack)
        assert np.all(np.diff(sigmas) < 0.0)
        defined = [(f.sigma_hat, sg) for f, sg in zip(run.fits, sigmas) if f.defined]
        assert defined and all(hat >= 0.95 * sg for hat, sg in defined)

    def test_bound_inputs_calibrated(self, run):
        assert run.bounds.Y0 >= 0.0
        assert run.bounds.c_upper >= 1.0
        assert run.bounds.X0 == pytest.approx(run.trajectory.records[0].gevrey, rel=1e-12)

    def test_growth_ratio_bounded(self, run):
        # (G(t) - X0)/sqrt(t) stays below the calibrated Y0 over the window
        times = run.trajectory.times()
        later = times > 0
        ratio = (run.gevreys[later] - run.bounds.X0) / np.sqrt(times[later])
        assert np.max(ratio) <= run.bounds.Y0 + 1e-12

    def test_one_norm_per_tracked_step(self, grid, coeffs, monkeypatch):
        # G(t_i, sigma_i) is evaluated once: it starts the next sigma step and is the
        # run's gevreys entry (no sub-stepping at this size, so nothing else is evaluated)
        calls = []

        def counting(u, g, _real=analyticity.gevrey_norm):
            calls.append(g)
            return _real(u, g)

        monkeypatch.setattr(analyticity, "gevrey_norm", counting)
        eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
        kb.tracked_run(eta0, 0.1, 2e-3, coeffs, sigma0=0.5, record_every=7)
        assert len(calls) == 50 + 1

    def test_record_gevrey_at_tracked_sigma(self, run):
        sigma = dict(run.sigma_series)
        records = run.trajectory.records
        assert run.sigmas.tolist() == [sigma[r.t] for r in records]
        assert run.gevreys.tolist() == [
            kb.gevrey_norm(r.state, kb.GevreyIndex(sigma[r.t], 2.0)) for r in records
        ]
        assert [f.sigma_hat for f in run.fits] == [kb.estimate_radius(r.state).sigma_hat for r in records]

    def test_records_final_at_sigma0(self, run):
        # a record carries G at the fixed index (sigma0, s), as every other command's records do
        for r in run.trajectory.records:
            assert r.gevrey == kb.gevrey_norm(r.state, kb.GevreyIndex(0.5, 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.trajectory.final.gevrey = 0.0

    def test_final_step_recorded_off_stride(self, grid, coeffs):
        eta0 = kb.gevrey_synthetic(grid, 0.6, roll_off=2.0, amplitude=0.002)
        run = kb.tracked_run(eta0, 0.1, 2e-3, coeffs, sigma0=0.5, record_every=7)
        times = [r.t for r in run.trajectory.records]
        assert times == [i * 2e-3 for i in (0, 7, 14, 21, 28, 35, 42, 49, 50)]
        assert len(run.fits) == len(run.lower) == len(run.upper) == 9
        sigma = dict(run.sigma_series)
        last = run.trajectory.final
        assert run.gevreys[-1] == kb.gevrey_norm(last.state, kb.GevreyIndex(sigma[last.t], 2.0))

    def test_csv_ready_series(self, run):
        assert len(run.lower) == len(run.trajectory.records)
        assert len(run.sigma_series) == 501  # every step plus t = 0
        ts = [t for (t, _) in run.sigma_series]
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(1.0)
