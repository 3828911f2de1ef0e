import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdvbbm as kb
from kdvbbm.dynamics import CUBIC_COEFF, DERIV_SQ_COEFF, IFRK4Stepper, _half_symbols, _tendency
from kdvbbm.estimates import _campaign
from kdvbbm.spectral import full_spectrum, half_spectrum, product_spectra
from oracles import convolve_project, richardson_order

G01 = kb.GevreyIndex(0.1, 2.0)


class TestLinearPropagate:
    def test_t_zero_identity(self, grid, coeffs):
        u = kb.random_field(grid, "band_limited", 0)
        v = kb.linear_propagate(u, 0.0, coeffs)
        assert np.max(np.abs(v.coeffs - u.coeffs)) == 0.0

    def test_norm_preservation(self, grid, coeffs):
        rng = np.random.default_rng(1)
        for seed in range(10):
            u = kb.random_field(grid, "band_limited", seed)
            t = float(rng.uniform(0.1, 10.0))
            for g in (G01, kb.GevreyIndex(0.0, 0.0)):
                before = kb.gevrey_norm(u, g)
                after = kb.gevrey_norm(kb.linear_propagate(u, t, coeffs), g)
                assert abs(after - before) <= 1e-12 * before

    def test_group_law(self, grid, coeffs):
        u = kb.random_field(grid, "band_limited", 2)
        a = kb.linear_propagate(kb.linear_propagate(u, 1.3, coeffs), 2.4, coeffs)
        b = kb.linear_propagate(u, 3.7, coeffs)
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12 * scale

    def test_single_mode_phase(self, small_grid, coeffs):
        u = kb.cos_mode(small_grid, 3, 1.0)
        t = 0.7
        v = kb.linear_propagate(u, t, coeffs)
        phase = np.exp(-1j * kb.evaluate_symbol("phi", 3.0, coeffs) * t)
        assert v.coeffs[3] == pytest.approx(0.5 * phase, abs=1e-15)


class TestUnpairedMode:
    """The free group leaves c_{-n/2} fixed, so a real datum stays real."""

    @pytest.fixture
    def eta0(self, small_grid):
        u = kb.cos_mode(small_grid, 1, 0.01)
        c = u.coeffs.copy()
        c[small_grid.nyquist] = 1e-3
        return kb.Spectrum(small_grid, c)

    def _assert_fixed_and_real(self, eta0, state):
        nyq = eta0.grid.nyquist
        assert state.coeffs[nyq] == eta0.coeffs[nyq]
        kb.transform_inverse(state)  # raises SymmetryError on a complex field

    def test_linear_propagate(self, eta0, coeffs):
        self._assert_fixed_and_real(eta0, kb.linear_propagate(eta0, 0.1, coeffs))

    def test_evolve_ifrk4(self, eta0, coeffs):
        traj = kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs)
        for r in traj.records:
            self._assert_fixed_and_real(eta0, r.state)

    def test_picard_solve(self, eta0, coeffs):
        traj, _ = kb.picard_solve(eta0, 0.1, 1e-12, 30, coeffs, G01, n_nodes=16, mesh_check=False)
        for r in traj.records:
            self._assert_fixed_and_real(eta0, r.state)


def _rhs(c, grid, coeffs):
    """The nonlinear tendency of a real-field spectrum, in FFT layout."""
    return full_spectrum(_tendency(_half_symbols(grid, coeffs), half_spectrum(c)))


class TestNonlinearRhs:
    def test_zero(self, grid, coeffs):
        assert np.all(_rhs(np.zeros(grid.n_modes, complex), grid, coeffs) == 0)

    def test_constant_field(self, grid, coeffs):
        # psi(0) = tau(0) = 0 and the derivative of a constant vanishes
        out = _rhs(kb.cos_mode(grid, 0, 2.5).coeffs, grid, coeffs)
        assert np.max(np.abs(out)) < 1e-16

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_convolution_oracle(self, small_grid, coeffs, seed):
        c = 0.05 * kb.random_field(small_grid, "band_limited", seed, cutoff=9).coeffs
        out = _rhs(c, small_grid, coeffs)
        dc = c * (1j * small_grid.wavenumbers)
        dc[small_grid.nyquist] = 0.0
        sq = convolve_project(small_grid, c, c)
        cube = convolve_project(small_grid, c, c, c)
        dsq = convolve_project(small_grid, dc, dc)
        xi = small_grid.wavenumbers
        tau = kb.evaluate_symbol("tau", xi, coeffs)
        psi = kb.evaluate_symbol("psi", xi, coeffs)
        oracle = -1j * (tau * sq - CUBIC_COEFF * psi * cube - DERIV_SQ_COEFF * psi * dsq)
        oracle[small_grid.nyquist] = 0.0
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(out - oracle)) < 1e-12 * scale

    def test_preserves_realness(self, grid, coeffs):
        out = _rhs(0.1 * kb.random_field(grid, "band_limited", 7).coeffs, grid, coeffs)
        assert kb.Spectrum(grid, out).hermitian_defect() < 1e-12

    def test_non_real_input_rejected(self, small_grid, coeffs):
        # the tendency reads only the half spectrum, so a non-real input must not pass silently
        rng = np.random.default_rng(5)
        u = kb.Spectrum(small_grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        assert u.hermitian_defect() > 1.0
        with pytest.raises(kb.SymmetryError):
            _rhs(u.coeffs, small_grid, coeffs)
        with pytest.raises(kb.SymmetryError):
            product_spectra(np.array([u.coeffs, u.coeffs]))

    def test_hermitian_check_tolerance_and_nyquist_exemption(self, small_grid, coeffs):
        c = 0.1 * kb.random_field(small_grid, "band_limited", 3).coeffs
        c[small_grid.nyquist] = 0.02 - 0.03j  # exempt: read as split onto +-n/2
        c[5] += 1e-12  # within 1e-10 of the largest mode
        _rhs(c, small_grid, coeffs)
        c[5] += 1e-6
        with pytest.raises(kb.SymmetryError):
            _rhs(c, small_grid, coeffs)


def _nyquist_datum(grid):
    c = kb.cos_mode(grid, 1, 0.01).coeffs.copy()
    c[grid.nyquist] = 1e-3
    return kb.Spectrum(grid, c)


HALF_LAYOUT_DATA = {
    "gaussian": lambda grid: kb.gaussian(grid, 0.5, 0.5),
    "gevrey_synthetic": lambda grid: kb.gevrey_synthetic(grid, 0.3, 2.0, 0.1),
    "nyquist": _nyquist_datum,
}


def _reference_tendency(grid, coeffs, c):
    """N(c) in FFT layout by exact convolution, c_{-n/2} split evenly onto +-n/2."""
    n, half = grid.n_modes, grid.nyquist
    fine = kb.SpectralGrid(2 * n, grid.half_length)

    def embed(a):
        e = np.zeros(2 * n, complex)
        e[:half], e[2 * n - half + 1 :] = a[:half], a[half + 1 :]
        e[2 * n - half], e[half] = 0.5 * a[half], 0.5 * np.conj(a[half])
        return e

    def project(e):
        out = np.zeros(n, complex)
        out[:half], out[half + 1 :] = e[:half], e[2 * n - half + 1 :]
        return out

    dc = c * (1j * grid.wavenumbers)
    dc[half] = 0.0
    e, de = embed(c), embed(dc)
    sq, cube, dsq = (project(convolve_project(fine, *f)) for f in ((e, e), (e, e, e), (de, de)))
    tau = kb.evaluate_symbol("tau", grid.wavenumbers, coeffs)
    psi = kb.evaluate_symbol("psi", grid.wavenumbers, coeffs)
    out = -1j * (tau * sq - psi * (CUBIC_COEFF * cube + DERIV_SQ_COEFF * dsq))
    out[half] = 0.0
    return out


class TestHalfLayoutMarcher:
    """The marcher keeps its state in half layout; these pin it to the full-layout definition."""

    @pytest.mark.parametrize("name", sorted(HALF_LAYOUT_DATA))
    def test_step_matches_full_layout_rk4(self, small_grid, coeffs, name):
        eta0 = HALF_LAYOUT_DATA[name](small_grid)
        dt = 0.01
        S = lambda a, t: kb.linear_propagate(kb.Spectrum(small_grid, a), t, coeffs).coeffs
        N = lambda a: _reference_tendency(small_grid, coeffs, a)
        c = eta0.coeffs
        k1 = N(c)
        k2 = N(S(c + 0.5 * dt * k1, 0.5 * dt))
        k3 = N(S(c, 0.5 * dt) + 0.5 * dt * k2)
        k4 = N(S(c, dt) + dt * S(k3, 0.5 * dt))
        reference = S(c, dt) + (dt / 6.0) * (S(k1, dt) + 2.0 * S(k2 + k3, 0.5 * dt) + k4)
        stepped = full_spectrum(IFRK4Stepper(small_grid, coeffs, dt).step(half_spectrum(c)))
        assert np.max(np.abs(stepped - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("name", sorted(HALF_LAYOUT_DATA))
    def test_states_exactly_hermitian_nyquist_fixed(self, small_grid, coeffs, name):
        eta0 = HALF_LAYOUT_DATA[name](small_grid)
        nyq = small_grid.nyquist
        traj = kb.evolve_ifrk4(eta0, 0.2, 0.01, coeffs, record_every=4)
        for r in traj.records[1:]:
            assert r.state.coeffs[nyq] == eta0.coeffs[nyq]
            assert r.state.hermitian_defect() == 0.0

    def test_one_step_call_per_step(self, grid, coeffs, monkeypatch):
        # perfbench counts traced IFRK4Stepper.step calls as the march's steps
        calls = []
        step = IFRK4Stepper.step
        monkeypatch.setattr(IFRK4Stepper, "step", lambda self, c: calls.append(1) or step(self, c))
        T, dt = 0.3, 0.01  # T / dt = 29.999999999999996
        kb.evolve_ifrk4(kb.cos_mode(grid, 1, 0.05), T, dt, coeffs, record_every=7)
        assert len(calls) == round(T / dt) == 30

    def test_non_real_datum_rejected(self, small_grid, coeffs):
        c = kb.cos_mode(small_grid, 1, 0.01).coeffs.copy()
        c[3] += 1e-3j
        with pytest.raises(kb.SymmetryError):
            kb.evolve_ifrk4(kb.Spectrum(small_grid, c), 0.1, 0.01, coeffs)


class TestIFRK4:
    def test_zero_datum(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.n_modes, complex))
        traj = kb.evolve_ifrk4(z, 0.1, 0.01, coeffs)
        assert all(np.all(r.state.coeffs == 0) for r in traj.records)

    def test_step_count_mismatch(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.n_modes, complex))
        with pytest.raises(ValueError, match="integral multiple"):
            kb.evolve_ifrk4(z, 1.0, 0.3, coeffs)

    def test_energy_conservation_short(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.05)
        traj = kb.evolve_ifrk4(eta0, 1.0, 1e-3, coeffs, record_every=50)
        energies = [r.energy for r in traj.records]
        drift = max(abs(e - energies[0]) for e in energies) / energies[0]
        assert drift < 1e-10

    def test_realness_preserved(self, grid, coeffs):
        eta0 = kb.gaussian(grid, 1.0, 0.5)
        traj = kb.evolve_ifrk4(eta0, 1.0, 2e-3, coeffs, record_every=100)
        assert traj.final.state.hermitian_defect() < 1e-11

    def test_self_convergence_order(self, grid, coeffs):
        eta0 = kb.gaussian(grid, 1.0, 1.0)
        finals = [
            kb.evolve_ifrk4(eta0, 1.0, dt, coeffs, record_every=10**6).final.state.coeffs
            for dt in (0.04, 0.02, 0.01)
        ]
        e1 = np.sqrt(np.sum(np.abs(finals[0] - finals[1]) ** 2))
        e2 = np.sqrt(np.sum(np.abs(finals[1] - finals[2]) ** 2))
        assert 3.5 < richardson_order(e1, e2) < 4.5

    def test_blowup_guard(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.1)
        with pytest.raises(kb.BlowUpError):
            kb.evolve_ifrk4(eta0, 1.0, 0.01, coeffs, blowup_factor=0.5)

    def test_restart_matches_single_run(self, grid, coeffs):
        # the numerical flow is a fixed map per step, so a restart is exact
        eta0 = kb.gaussian(grid, 1.0, 0.5)
        full = kb.evolve_ifrk4(eta0, 1.0, 1e-2, coeffs, record_every=10**6)
        half = kb.evolve_ifrk4(eta0, 0.5, 1e-2, coeffs, record_every=10**6)
        rest = kb.evolve_ifrk4(half.final.state, 0.5, 1e-2, coeffs, record_every=10**6)
        scale = np.max(np.abs(full.final.state.coeffs))
        diff = np.max(np.abs(full.final.state.coeffs - rest.final.state.coeffs))
        assert diff < 1e-12 * scale

    def test_on_step_called_every_step(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        seen = []
        traj = kb.evolve_ifrk4(
            eta0, 0.1, 0.01, coeffs, on_step=lambda t, s: seen.append((t, s)), record_every=3,
        )
        assert len(seen) == 11  # every step plus t = 0, recorded or not
        assert seen[0][0] == 0.0 and seen[0][1] is eta0
        assert seen[-1][0] == pytest.approx(0.1)
        assert [r.t for r in traj.records] == [seen[i][0] for i in (0, 3, 6, 9, 10)]
        assert all(r.state is seen[i][1] for r, i in zip(traj.records, (0, 3, 6, 9, 10)))

    def test_on_step_error_ends_march(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        seen = []

        def stop_at_third(t, state):
            seen.append(t)
            if len(seen) == 3:
                raise kb.StepCollapseError(t, 0.0, 1.0)

        with pytest.raises(kb.StepCollapseError):
            kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, on_step=stop_at_third)
        assert len(seen) == 3

    def test_gevrey_column(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        traj = kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, gevrey_index=G01, record_every=5)
        assert traj.records[0].gevrey == pytest.approx(kb.gevrey_norm(eta0, G01), rel=1e-12)


class TestPicard:
    def test_zero_datum_one_iteration(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.n_modes, complex))
        traj, diag = kb.picard_solve(z, 1.0, 1e-10, 10, coeffs, G01, n_nodes=16)
        assert diag.iterations == 1
        assert all(np.all(r.state.coeffs == 0) for r in traj.records)

    def test_small_data_contracts_and_matches_marcher(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        T = 0.5
        traj, diag = kb.picard_solve(eta0, T, 1e-11, 30, coeffs, G01, n_nodes=64)
        assert diag.distances[-1] < 1e-11
        assert diag.contraction_ratio <= 0.55
        sup_g = max(r.gevrey for r in traj.records)
        assert sup_g <= 2.0 * (1.0 + 1e-6) * kb.gevrey_norm(eta0, G01)
        assert diag.mesh_delta is not None and diag.mesh_delta <= 1e-11
        rk = kb.evolve_ifrk4(eta0, T, 1e-3, coeffs, record_every=10**6)
        delta = kb.gevrey_norm(
            kb.Spectrum(grid, traj.final.state.coeffs - rk.final.state.coeffs), G01
        )
        assert delta < 1e-8

    def test_distances_decrease_geometrically(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        _, diag = kb.picard_solve(eta0, 0.5, 1e-12, 30, coeffs, G01, n_nodes=32,
                                  mesh_check=False)
        assert all(r < 1.0 for r in diag.ratios)

    def test_no_convergence_raises(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 5.0)
        with pytest.raises(kb.NoConvergenceError):
            kb.picard_solve(eta0, 5.0, 1e-10, 8, coeffs, G01, n_nodes=16, mesh_check=False)

    def test_bad_horizon(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        with pytest.raises(ValueError):
            kb.picard_solve(eta0, -1.0, 1e-10, 10, coeffs, G01)


class TestLocalExistenceTime:
    def test_frozen_values(self):
        assert kb.local_existence_time(1.0, 1.0) == pytest.approx(1 / 16, rel=1e-15)
        assert kb.local_existence_time(3.0, 2.0) == pytest.approx(1 / 192, rel=1e-15)

    def test_zero_datum_infinite(self):
        assert kb.local_existence_time(0.0, 1.0) == math.inf

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(1e-6, 1e3),
        b=st.floats(1e-6, 1e3),
        c_s=st.floats(1e-3, 1e3),
    )
    def test_monotone_decreasing(self, a, b, c_s):
        lo, hi = min(a, b), max(a, b)
        assert kb.local_existence_time(hi, c_s) <= kb.local_existence_time(lo, c_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            kb.local_existence_time(-1.0, 1.0)
        with pytest.raises(ValueError):
            kb.local_existence_time(1.0, 0.0)


def test_trajectory_must_start_at_zero(grid, coeffs):
    state = kb.cos_mode(grid, 1, 0.1)
    rec = kb.SampleRecord(t=1.0, state=state, energy=0.0, h2=0.0)
    with pytest.raises(ValueError):
        kb.Trajectory(coeffs, grid, [rec])


def test_antisymmetry_discrete_cancellation(grid, coeffs):
    # i * integral of v * phi-rotation(v) vanishes exactly on the grid
    _, residuals = _campaign("antisymmetry", grid, G01, coeffs, None)
    v = kb.random_fields(grid, "band_limited", range(5))
    assert np.all(residuals(v) < 1e-12)
