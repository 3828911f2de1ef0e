import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdvbbm as kb
from kdvbbm import cli, dynamics, spectral
from kdvbbm.dynamics import IFRK4Stepper, _free_group, _Tendency
from kdvbbm.estimates import campaign
from draws import random_spectrum
from oracles import convolve_project, fft_to_half, fft_wavenumbers, half_to_fft, richardson_order

G01 = kb.GevreyIndex(0.1, 2.0)

# The paper's coefficients of the cubic and derivative-square terms, written out here so
# that the oracles below do not inherit a change to the package's constants.
CUBIC, DERIV_SQ = 1.0 / 8.0, 7.0 / 48.0


class TestFreeGroup:
    """One builder of S(t) = e^{-i phi t}: the rotation C01 checks through linear_propagate
    is the one the IFRK4 marcher and the Picard mesh run."""

    def test_column_rows_equal_single_times(self, grid, coeffs):
        # the Picard mesh's rotations: 65 times as a column, written into a given array
        ts = np.linspace(0.0, 4.7, 65)
        out = np.empty((ts.size, grid.nyquist + 1), complex)
        assert _free_group(grid, coeffs, ts[:, None], out=out) is out
        rows = _free_group(grid, coeffs, ts[:, None])
        for t, row, written in zip(ts, rows, out, strict=True):
            single = _free_group(grid, coeffs, float(t)).tobytes()
            assert row.tobytes() == single
            assert written.tobytes() == single

    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.05])
    def test_stepper_rotation_is_the_half_step(self, grid, coeffs, dt):
        stepper = IFRK4Stepper(grid, coeffs, dt)
        assert stepper.e_half.tobytes() == _free_group(grid, coeffs, dt / 2).tobytes()

    def test_linear_propagate_applies_it(self, grid, coeffs):
        u = random_spectrum(grid, "band_limited", 3)
        rotated = u.half * _free_group(grid, coeffs, 1.7)
        assert kb.linear_propagate(u, 1.7, coeffs).half.tobytes() == rotated.tobytes()


class TestLinearPropagate:
    def test_t_zero_identity(self, grid, coeffs):
        u = random_spectrum(grid, "band_limited", 0)
        v = kb.linear_propagate(u, 0.0, coeffs)
        assert np.max(np.abs(v.half - u.half)) == 0.0

    def test_norm_preservation(self, grid, coeffs):
        rng = np.random.default_rng(1)
        for seed in range(10):
            u = random_spectrum(grid, "band_limited", seed)
            t = float(rng.uniform(0.1, 10.0))
            for g in (G01, kb.GevreyIndex(0.0, 0.0)):
                before = kb.gevrey_norm(u, g)
                after = kb.gevrey_norm(kb.linear_propagate(u, t, coeffs), g)
                assert abs(after - before) <= 1e-12 * before

    def test_group_law(self, grid, coeffs):
        u = random_spectrum(grid, "band_limited", 2)
        a = kb.linear_propagate(kb.linear_propagate(u, 1.3, coeffs), 2.4, coeffs)
        b = kb.linear_propagate(u, 3.7, coeffs)
        scale = np.max(np.abs(u.half))
        assert np.max(np.abs(a.half - b.half)) < 1e-12 * scale

    def test_single_mode_phase(self, small_grid, coeffs):
        u = kb.cos_mode(small_grid, 3, 1.0)
        t = 0.7
        v = kb.linear_propagate(u, t, coeffs)
        phase = np.exp(-1j * kb.evaluate_symbol("phi", 3.0, coeffs) * t)
        assert half_to_fft(v.half)[3] == pytest.approx(0.5 * phase, abs=1e-15)


class TestUnpairedMode:
    """The free group leaves c_{-n/2} fixed, so a real datum stays real."""

    @pytest.fixture
    def eta0(self, small_grid):
        return _nyquist_datum(small_grid)

    def _assert_fixed_and_real(self, eta0, state):
        nyq = eta0.grid.nyquist
        assert state.half[nyq] == eta0.half[nyq]
        assert state.half[0].imag == 0.0  # the one entry that could break realness

    def test_linear_propagate(self, eta0, coeffs):
        self._assert_fixed_and_real(eta0, kb.linear_propagate(eta0, 0.1, coeffs))

    def test_evolve_ifrk4(self, eta0, coeffs):
        traj = kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, G01)
        for u in _states(traj):
            self._assert_fixed_and_real(eta0, u)

    def test_picard_solve(self, eta0, coeffs):
        traj, _ = kb.picard_solve(eta0, 0.1, 1e-12, 30, coeffs, G01, n_nodes=16)
        for u in _states(traj):
            self._assert_fixed_and_real(eta0, u)


def _states(traj):
    """The recorded states of a trajectory, one Spectrum per row."""
    return [kb.Spectrum(traj.grid, d) for d in traj.half]


def _rhs(u, coeffs):
    """The nonlinear tendency of a spectrum, in FFT layout."""
    return half_to_fft(_Tendency(u.grid, coeffs)(u.half, out=np.empty_like(u.half)))


class TestNonlinearRhs:
    def test_zero(self, grid, coeffs):
        assert np.all(_rhs(kb.Spectrum(grid, np.zeros(grid.nyquist + 1, complex)), coeffs) == 0)

    def test_constant_field(self, grid, coeffs):
        # psi(0) = tau(0) = 0 and the derivative of a constant vanishes
        out = _rhs(kb.cos_mode(grid, 0, 2.5), coeffs)
        assert np.max(np.abs(out)) < 1e-16

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_convolution_oracle(self, small_grid, coeffs, seed):
        u = random_spectrum(small_grid, "band_limited", seed, cutoff=9)
        u = kb.Spectrum(small_grid, 0.05 * u.half)
        out = _rhs(u, coeffs)
        c = half_to_fft(u.half)
        xi = fft_wavenumbers(small_grid)
        dc = c * (1j * xi)
        dc[small_grid.nyquist] = 0.0
        sq = convolve_project(small_grid, c, c)
        cube = convolve_project(small_grid, c, c, c)
        dsq = convolve_project(small_grid, dc, dc)
        tau = kb.evaluate_symbol("tau", xi, coeffs)
        psi = kb.evaluate_symbol("psi", xi, coeffs)
        oracle = -1j * (tau * sq - CUBIC * psi * cube - DERIV_SQ * psi * dsq)
        oracle[small_grid.nyquist] = 0.0
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(out - oracle)) < 1e-12 * scale

    def test_preserves_realness(self, grid, coeffs):
        # mode 0 of the tendency is 0 (tau(0) = psi(0) = 0), so it is again a real field's
        u = kb.Spectrum(grid, 0.1 * random_spectrum(grid, "band_limited", 7).half)
        d = _Tendency(grid, coeffs)(u.half, out=np.empty_like(u.half))
        assert d[0] == 0
        kb.Spectrum(grid, d)

    def test_non_real_input_rejected(self, small_grid, coeffs):
        # the tendency reads only half layout, so a non-real input must not reach it silently
        rng = np.random.default_rng(5)
        d = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        with pytest.raises(kb.SymmetryError):
            _rhs(kb.Spectrum(small_grid, d), coeffs)

    def test_real_field_gate_tolerance_and_nyquist_freedom(self, small_grid, coeffs):
        d = 0.1 * random_spectrum(small_grid, "band_limited", 3).half
        d[small_grid.nyquist] = 0.02 - 0.03j  # any value: split onto +-n/2
        d[0] += 1e-12j * np.abs(d).max()  # within 1e-10 of the largest mode
        _rhs(kb.Spectrum(small_grid, d), coeffs)
        d[0] += 1e-6j
        with pytest.raises(kb.SymmetryError):
            _rhs(kb.Spectrum(small_grid, d), coeffs)


def _nyquist_datum(grid):
    c = half_to_fft(kb.cos_mode(grid, 1, 0.01).half)
    c[grid.nyquist] = 1e-3
    return kb.Spectrum(grid, fft_to_half(c))


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

    xi = fft_wavenumbers(grid)
    dc = c * (1j * xi)
    dc[half] = 0.0
    e, de = embed(c), embed(dc)
    sq, cube, dsq = (project(convolve_project(fine, *f)) for f in ((e, e), (e, e, e), (de, de)))
    tau = kb.evaluate_symbol("tau", xi, coeffs)
    psi = kb.evaluate_symbol("psi", xi, coeffs)
    out = -1j * (tau * sq - psi * (CUBIC * cube + DERIV_SQ * dsq))
    out[half] = 0.0
    return out


class TestHalfLayoutMarcher:
    """The marcher keeps its state in half layout; these pin it to the full-layout definition."""

    @pytest.mark.parametrize("name", sorted(HALF_LAYOUT_DATA))
    def test_step_matches_full_layout_rk4(self, small_grid, coeffs, name):
        eta0 = HALF_LAYOUT_DATA[name](small_grid)
        dt = 0.01
        S = lambda a, t: half_to_fft(
            kb.linear_propagate(kb.Spectrum(small_grid, fft_to_half(a)), t, coeffs).half
        )
        N = lambda a: _reference_tendency(small_grid, coeffs, a)
        c = half_to_fft(eta0.half)
        k1 = N(c)
        k2 = N(S(c + 0.5 * dt * k1, 0.5 * dt))
        k3 = N(S(c, 0.5 * dt) + 0.5 * dt * k2)
        k4 = N(S(c, dt) + dt * S(k3, 0.5 * dt))
        reference = S(c, dt) + (dt / 6.0) * (S(k1, dt) + 2.0 * S(k2 + k3, 0.5 * dt) + k4)
        stepped = half_to_fft(IFRK4Stepper(small_grid, coeffs, dt).step(eta0.half))
        assert np.max(np.abs(stepped - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("name", sorted(HALF_LAYOUT_DATA))
    def test_states_exactly_hermitian_nyquist_fixed(self, small_grid, coeffs, name):
        eta0 = HALF_LAYOUT_DATA[name](small_grid)
        nyq = small_grid.nyquist
        traj = kb.evolve_ifrk4(eta0, 0.2, 0.01, coeffs, G01, record_every=4)
        assert np.all(traj.half[1:, nyq] == eta0.half[nyq])
        assert np.all(traj.half[1:, 0].imag == 0.0)

    def test_one_step_call_per_step(self, grid, coeffs, monkeypatch):
        # perfbench counts traced IFRK4Stepper.step calls as the march's steps
        calls = []
        step = IFRK4Stepper.step
        monkeypatch.setattr(IFRK4Stepper, "step", lambda self, c: calls.append(1) or step(self, c))
        T, dt = 0.3, 0.01  # T / dt = 29.999999999999996
        kb.evolve_ifrk4(kb.cos_mode(grid, 1, 0.05), T, dt, coeffs, G01, record_every=7)
        assert len(calls) == round(T / dt) == 30

    def test_non_real_datum_rejected(self, small_grid, coeffs):
        d = kb.cos_mode(small_grid, 1, 0.01).half.copy()
        d[0] += 1e-3j
        with pytest.raises(kb.SymmetryError):
            kb.evolve_ifrk4(kb.Spectrum(small_grid, d), 0.1, 0.01, coeffs, G01)


class TestTendencyWorkspace:
    """The stepper and the Picard rows evaluate N in buffers allocated once; nothing may leak."""

    def test_states_unchanged_by_later_steps(self, grid, coeffs):
        eta0 = kb.gaussian(grid, 1.0, 0.5)
        kept = []
        kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, G01, on_step=lambda t, d: kept.append((d, d.copy())))
        assert len(kept) == 11
        assert all(np.array_equal(d, copy) for d, copy in kept)
        short = kb.evolve_ifrk4(eta0, 0.05, 0.01, coeffs, G01)
        longer = kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, G01)
        assert np.array_equal(short.half, longer.half[:6])

    def test_step_keeps_no_state_between_calls(self, grid, coeffs):
        d = kb.gaussian(grid, 1.0, 0.5).half
        copy = d.copy()
        stepper = IFRK4Stepper(grid, coeffs, 0.01)
        first, second = stepper.step(d), stepper.step(d)
        assert first is not second and np.array_equal(first, second)
        assert np.array_equal(d, copy)

    @pytest.mark.parametrize("n", [16, 256])
    def test_batched_rows_equal_single_calls(self, coeffs, n):
        # one call on a stack of rows gives each row bit for bit, as Picard's blocks need
        grid = kb.SpectralGrid(n, 16.0 * np.pi)
        rng = np.random.default_rng(n)
        shape = (65, n // 2 + 1)
        d = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        batched = _Tendency(grid, coeffs, shape[:1])(d, out=np.empty_like(d))
        single = _Tendency(grid, coeffs)
        for row, got in zip(d, batched, strict=True):
            assert np.array_equal(single(row, out=np.empty_like(row)), got)

    def test_picard_blocks_equal_row_by_row(self, grid, coeffs, monkeypatch):
        # 21 and 41 rows: the last block of each mesh overlaps the one before it
        eta0 = kb.cos_mode(grid, 1, 0.05)
        solve = lambda: kb.picard_solve(eta0, 1.0, 1e-10, 30, coeffs, G01, n_nodes=20)
        blocked, blocked_diag = solve()
        monkeypatch.setattr(dynamics, "ROW_BLOCK", 1)
        single, single_diag = solve()
        assert blocked_diag.distances == single_diag.distances
        assert blocked_diag.mesh_delta == single_diag.mesh_delta
        assert np.array_equal(blocked.half, single.half)


class TestIFRK4:
    def test_zero_datum(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.nyquist + 1, complex))
        traj = kb.evolve_ifrk4(z, 0.1, 0.01, coeffs, G01)
        assert traj.half.shape == (11, grid.nyquist + 1) and np.all(traj.half == 0)

    def test_step_count_mismatch(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.nyquist + 1, complex))
        with pytest.raises(ValueError, match="integral multiple"):
            kb.evolve_ifrk4(z, 1.0, 0.3, coeffs, G01)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_stepper_needs_positive_dt(self, small_grid, coeffs, dt):
        # the march asks step_count first, so only a direct caller reaches this guard
        with pytest.raises(ValueError, match=r"^dt must be positive, got "):
            IFRK4Stepper(small_grid, coeffs, dt)


class TestWholeSteps:
    def test_picard_benchmark_horizon(self):
        # the benchmark picard op's cross-check: T = 4.7 in steps nearest dt = 1e-2
        assert dynamics.whole_steps(4.7, 1e-2) == (470, 4.7 / 470)

    def test_horizon_below_half_a_step_is_one_step(self):
        assert dynamics.whole_steps(0.004, 0.01) == (1, 0.004)

    @pytest.mark.parametrize(
        "T, dt", [(4.7, 1e-2), (0.004, 0.01), (0.4567, 0.01), (1.0, 0.3), (5.0, 3e-3), (0.2, 0.2)]
    )
    def test_march_accepts_its_step(self, T, dt):
        # the cross-check march checks its step by step_count, which must take it
        n_steps, step = dynamics.whole_steps(T, dt)
        assert n_steps >= 1 and dynamics.step_count(T, step) == n_steps

    def test_energy_conservation_short(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.05)
        traj = kb.evolve_ifrk4(eta0, 1.0, 1e-3, coeffs, G01, record_every=50)
        energies = traj.energy
        drift = max(abs(e - energies[0]) for e in energies) / energies[0]
        assert drift < 1e-10

    def test_realness_preserved(self, grid, coeffs):
        eta0 = kb.gaussian(grid, 1.0, 0.5)
        traj = kb.evolve_ifrk4(eta0, 1.0, 2e-3, coeffs, G01, record_every=100)
        assert traj.half[-1, 0].imag == 0.0

    def test_self_convergence_order(self, grid, coeffs):
        eta0 = kb.gaussian(grid, 1.0, 1.0)
        finals = [
            kb.evolve_ifrk4(eta0, 1.0, dt, coeffs, G01, record_every=10**6).half[-1]
            for dt in (0.04, 0.02, 0.01)
        ]
        e1 = np.sqrt(np.sum(grid.parseval * np.abs(finals[0] - finals[1]) ** 2))
        e2 = np.sqrt(np.sum(grid.parseval * np.abs(finals[1] - finals[2]) ** 2))
        assert 3.5 < richardson_order(e1, e2) < 4.5

    def test_blowup_guard(self, grid, coeffs, monkeypatch):
        eta0 = kb.cos_mode(grid, 1, 0.1)
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 0.5)
        with pytest.raises(kb.BlowUpError):
            kb.evolve_ifrk4(eta0, 1.0, 0.01, coeffs, G01)

    def test_blowup_size_is_l2_of_failing_state(self, grid, coeffs, monkeypatch):
        # the ceiling is checked in half layout, where c_{-n/2} counts four times
        eta0 = _nyquist_datum(grid)
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", 0.9)
        with pytest.raises(kb.BlowUpError) as err:
            kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, G01)
        monkeypatch.undo()
        failing = _states(kb.evolve_ifrk4(eta0, err.value.t, 0.01, coeffs, G01, record_every=10**6))[-1]
        c = half_to_fft(failing.half)
        assert c[grid.nyquist] == 1e-3
        l2 = np.sqrt(2.0 * grid.half_length * np.sum(np.abs(c) ** 2))
        assert err.value.value == pytest.approx(l2, rel=1e-12)
        # the guard's size is the package's L^2 norm of that state, bit for bit
        assert err.value.value == kb.sobolev_norm(failing, 0.0)

    def test_restart_matches_single_run(self, grid, coeffs):
        # the numerical flow is a fixed map per step, so a restart is exact
        eta0 = kb.gaussian(grid, 1.0, 0.5)
        full = kb.evolve_ifrk4(eta0, 1.0, 1e-2, coeffs, G01, record_every=10**6)
        half = kb.evolve_ifrk4(eta0, 0.5, 1e-2, coeffs, G01, record_every=10**6)
        rest = kb.evolve_ifrk4(_states(half)[-1], 0.5, 1e-2, coeffs, G01, record_every=10**6)
        scale = np.max(np.abs(full.half[-1]))
        diff = np.max(np.abs(full.half[-1] - rest.half[-1]))
        assert diff < 1e-12 * scale

    def test_on_step_called_every_step(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        seen = []
        traj = kb.evolve_ifrk4(
            eta0, 0.1, 0.01, coeffs, G01, on_step=lambda t, s: seen.append((t, s)), record_every=3,
        )
        assert len(seen) == 11  # every step plus t = 0, recorded or not
        assert seen[0][0] == 0.0 and seen[0][1] is eta0.half
        assert seen[-1][0] == pytest.approx(0.1)
        assert traj.t.tolist() == [seen[i][0] for i in (0, 3, 6, 9, 10)]
        # the hook gets the states; a recorded row holds its step's, bit for bit
        for row, i in zip(traj.half, (0, 3, 6, 9, 10), strict=True):
            assert row.tobytes() == seen[i][1].tobytes()
        assert len({id(d) for _, d in seen}) == 11  # a fresh array each step

    def test_on_step_never_sees_rejected_state(self, grid, coeffs, monkeypatch):
        # the guard rejects step i's state (made NaN here) before the hook would see it:
        # the hook ran exactly i times, t = 0 included, and never with that state
        i, stepped = 4, []
        step = IFRK4Stepper.step

        def failing_step(self, c):
            d = step(self, c)
            if len(stepped) == i - 1:
                d[:] = np.nan
            stepped.append(d)
            return d

        monkeypatch.setattr(IFRK4Stepper, "step", failing_step)
        eta0 = kb.cos_mode(grid, 1, 0.1)
        seen = []
        with pytest.raises(kb.BlowUpError) as err:
            kb.evolve_ifrk4(eta0, 1.0, 0.01, coeffs, G01, on_step=lambda t, d: seen.append((t, d)))
        assert len(stepped) == i and err.value.t == i * 0.01 and math.isnan(err.value.value)
        assert len(seen) == i
        assert all(d is s for (_, d), s in zip(seen[1:], stepped[:-1], strict=True))
        assert all(d is not stepped[-1] for _, d in seen)

    def test_on_step_error_ends_march(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        seen = []

        class Stop(Exception):
            pass

        def stop_at_third(t, state):
            seen.append(t)
            if len(seen) == 3:
                raise Stop

        with pytest.raises(Stop):
            kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, G01, on_step=stop_at_third)
        assert len(seen) == 3

    def test_gevrey_column(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        traj = kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, G01, record_every=5)
        assert traj.gevrey[0] == pytest.approx(kb.gevrey_norm(eta0, G01), rel=1e-12)

    def test_first_record_values_from_datum(self, small_grid, coeffs):
        # the first row holds the datum's own state and is valued from it
        eta0 = kb.gaussian(small_grid, 0.5, 0.5)
        traj = kb.evolve_ifrk4(eta0, 0.1, 0.01, coeffs, G01)
        assert traj.half[0].tobytes() == eta0.half.tobytes()
        assert (traj.energy[0], traj.h2[0], traj.gevrey[0]) == (
            kb.energy(eta0, coeffs), kb.sobolev_norm(eta0, 2.0), kb.gevrey_norm(eta0, G01)
        )

    def test_records_keep_half_layout(self, grid, coeffs):
        # 100 steps, all recorded, caches warmed; a recorded half-layout state takes
        # (n/2+1) * 16 B and its row of the four value columns 32 B, about 0.02 of that at
        # n = 256, where a full spectrum would take n * 16 B
        eta0 = kb.cos_mode(grid, 1, 0.05)
        march = lambda: kb.evolve_ifrk4(eta0, 0.1, 1e-3, coeffs, G01)
        march()
        tracemalloc.start()
        try:
            traj = march()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert traj.half.shape == (101, grid.nyquist + 1)
        assert retained <= 1.05 * 101 * (grid.nyquist + 1) * 16


BOOKKEEPING_DATA = {
    "cos_mode": lambda grid: kb.cos_mode(grid, 1, 0.05),
    "gaussian": HALF_LAYOUT_DATA["gaussian"],
}


class TestMarchBookkeeping:
    """The value columns are read from the recorded half-layout states by one row sum per
    weight row of a stacked table, and the divergence guard through the same sum in one
    buffer per march; neither may move a value."""

    @staticmethod
    def _assert_values_equal(traj, i, u, coeffs, g):
        # == on purpose: row i of the columns reproduces the public norms bit for bit
        assert traj.energy[i] == kb.energy(u, coeffs)
        assert traj.h2[i] == kb.sobolev_norm(u, 2.0)
        assert traj.h2_polynomial_sq[i] == kb.h2_polynomial_sq(u)
        assert traj.gevrey[i] == kb.gevrey_norm(u, g)

    @pytest.mark.parametrize("name", ["cos_mode", "gaussian"])
    def test_march_records_equal_public_norms(self, small_grid, coeffs, name):
        eta0 = BOOKKEEPING_DATA[name](small_grid)
        traj = kb.evolve_ifrk4(eta0, 0.2, 0.01, coeffs, G01, record_every=3)
        assert [round(t / 0.01) for t in traj.t] == [0, 3, 6, 9, 12, 15, 18, 20]
        self._assert_values_equal(traj, 0, eta0, coeffs, G01)
        for i, u in enumerate(_states(traj)):
            self._assert_values_equal(traj, i, u, coeffs, G01)

    @pytest.mark.parametrize("name", ["cos_mode", "gaussian"])
    def test_picard_records_equal_public_norms(self, small_grid, coeffs, name):
        eta0 = BOOKKEEPING_DATA[name](small_grid)
        traj, _ = kb.picard_solve(eta0, 0.05, 1e-10, 30, coeffs, G01, n_nodes=8)
        assert traj.t.shape == (9,)
        for i, u in enumerate(_states(traj)):
            self._assert_values_equal(traj, i, u, coeffs, G01)

    def test_no_fft_layout_on_march_and_picard_paths(self, small_grid, coeffs, monkeypatch):
        # spectrum_csv_rows is the one function in the package that builds the n coefficients
        # of FFT layout (test_structure pins that); neither path calls it or builds a
        # Spectrum, and every row holds the n/2+1 entries it was stepped or solved in
        eta0 = kb.cos_mode(small_grid, 1, 0.05)
        counts = {"spectrum_csv_rows": 0, "Spectrum": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            return wrapper

        rows = counted("spectrum_csv_rows", spectral.spectrum_csv_rows)
        for module in (kb, spectral, cli):
            monkeypatch.setattr(module, "spectrum_csv_rows", rows)
        monkeypatch.setattr(dynamics, "Spectrum", counted("Spectrum", kb.Spectrum))
        traj = kb.evolve_ifrk4(eta0, 1.0, 0.01, coeffs, G01, record_every=7)
        solved, _ = kb.picard_solve(eta0, 0.05, 1e-10, 30, coeffs, G01, n_nodes=8)
        assert counts == {"spectrum_csv_rows": 0, "Spectrum": 0}
        # steps 0, 7, ..., 98 and the last, 100; the solve's 9 mesh rows
        assert traj.half.shape == (16, small_grid.nyquist + 1)
        assert solved.half.shape == (9, small_grid.nyquist + 1)

    def test_guard_raises_at_first_step_above_ceiling(self, small_grid, coeffs, monkeypatch):
        # L^2 norms of a known run, summed over full spectra
        eta0 = BOOKKEEPING_DATA["gaussian"](small_grid)
        dt = 0.01
        traj = kb.evolve_ifrk4(eta0, 0.5, dt, coeffs, G01)
        two_l = 2.0 * small_grid.half_length
        l2 = lambda d: np.sqrt(two_l * np.sum(np.abs(half_to_fft(d)) ** 2))
        sizes = np.array([l2(d) for d in traj.half[1:]])
        scale = l2(eta0.half)
        ratios = sizes / scale
        # ratios[j], of step j + 1, is the first from the tenth on to top every earlier one
        j = next(i for i in range(10, len(ratios)) if ratios[i] > ratios[:i].max() * (1 + 1e-9))
        factor = 0.5 * (ratios[:j].max() + ratios[j])
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", factor)
        with pytest.raises(kb.BlowUpError) as err:
            kb.evolve_ifrk4(eta0, 0.5, dt, coeffs, G01)
        assert err.value.t == (j + 1) * dt
        assert err.value.value == pytest.approx(sizes[j], rel=1e-12)
        assert err.value.ceiling == pytest.approx(factor * scale, rel=1e-15)
        monkeypatch.setattr(dynamics, "BLOWUP_FACTOR", ratios.max() * (1 + 1e-9))
        done = kb.evolve_ifrk4(eta0, 0.5, dt, coeffs, G01)
        assert done.t.size == traj.t.size


class TestPicard:
    def test_zero_datum_one_iteration(self, grid, coeffs):
        z = kb.Spectrum(grid, np.zeros(grid.nyquist + 1, complex))
        traj, diag = kb.picard_solve(z, 1.0, 1e-10, 10, coeffs, G01, n_nodes=16)
        assert diag.distances == (0.0,)
        assert traj.half.shape == (17, grid.nyquist + 1) and np.all(traj.half == 0)

    def test_small_data_contracts_and_matches_marcher(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        T = 0.5
        traj, diag = kb.picard_solve(eta0, T, 1e-11, 30, coeffs, G01, n_nodes=64)
        d = diag.distances
        assert d[-1] < 1e-11
        # every successive ratio, none left out at a noise floor
        assert max(later / earlier for earlier, later in zip(d, d[1:])) <= 0.55
        sup_g = max(traj.gevrey)
        assert sup_g <= 2.0 * (1.0 + 1e-6) * kb.gevrey_norm(eta0, G01)
        assert isinstance(diag.mesh_delta, float) and diag.mesh_delta <= 1e-11
        rk = kb.evolve_ifrk4(eta0, T, 1e-3, coeffs, G01, record_every=10**6)
        delta = kb.gevrey_norm(kb.Spectrum(grid, traj.half[-1] - rk.half[-1]), G01)
        assert delta < 1e-8

    def test_distances_decrease_geometrically(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        _, diag = kb.picard_solve(eta0, 0.5, 1e-12, 30, coeffs, G01, n_nodes=32)
        d = diag.distances
        assert len(d) >= 2 and all(later < earlier for earlier, later in zip(d, d[1:]))

    def test_no_convergence_raises(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 5.0)
        with pytest.raises(kb.NoConvergenceError):
            kb.picard_solve(eta0, 5.0, 1e-10, 8, coeffs, G01, n_nodes=16)

    def test_max_iter_exhausted_raises(self, coeffs):
        # a finite distance still above tol after max_iter sweeps, reported with the last one
        grid = kb.SpectralGrid(64, 16.0 * np.pi)
        eta0 = kb.cos_mode(grid, 1, 0.05)
        message = r"^no convergence after 1 Picard iterations on 16 nodes \(last distance \d.*, tol 1e-09\)"
        with pytest.raises(kb.NoConvergenceError, match=message):
            kb.picard_solve(eta0, 0.5, 1e-9, 1, coeffs, G01, n_nodes=16)

    def test_bad_horizon(self, grid, coeffs):
        eta0 = kb.cos_mode(grid, 1, 0.01)
        with pytest.raises(ValueError):
            kb.picard_solve(eta0, -1.0, 1e-10, 10, coeffs, G01)


def _allocating_sweep(eta0, coeffs, weights, T, n_nodes, tol, max_iter):
    """The Picard sweep as it was before the workspace: fresh temporaries every iteration,
    the distance taken in FFT layout; returns (half-layout states, distances)."""
    grid = eta0.grid
    ts = np.linspace(0.0, T, n_nodes + 1)
    dt = T / n_nodes
    block = min(n_nodes + 1, dynamics.ROW_BLOCK)
    tendency = _Tendency(grid, coeffs, (block,))
    starts = [*range(0, n_nodes + 1 - block, block), n_nodes + 1 - block]
    e_minus = np.exp(-1j * np.outer(ts, spectral.symbol_on_grid(grid, coeffs, "phi")))
    e_plus = np.conj(e_minus)
    eta0_h = eta0.half
    cur = e_minus * eta0_h[None, :]
    rhs_rows = np.empty_like(cur)
    distances = []
    for _ in range(max_iter):
        for lo in starts:
            tendency(cur[lo : lo + block], out=rhs_rows[lo : lo + block])
        integrand = np.multiply(e_plus, rhs_rows, out=rhs_rows)
        segments = 0.5 * dt * (integrand[:-1] + integrand[1:])
        prefix = np.vstack([np.zeros_like(eta0_h), np.cumsum(segments, axis=0)])
        new = (eta0_h[None, :] + prefix) * e_minus
        distances.append(_full_sup_distance(grid, weights, new - cur))
        cur = new
        if distances[-1] < tol:
            return cur, distances
    raise AssertionError("the reference sweep did not converge")


def _full_sup_distance(grid, weights, diff):
    sq_norms = np.sum(weights * np.abs(half_to_fft(diff)) ** 2, axis=1)
    return float(np.sqrt(2.0 * grid.half_length * np.max(sq_norms)))


class TestPicardWorkspace:
    """The solve runs in buffers allocated once per mesh and measures in half layout."""

    @pytest.mark.parametrize(
        "amplitude, n_nodes",
        # 129 and 257 rows of 129 modes: both meshes above numpy's 256 KiB size for
        # computing in place into temporaries; the zero datum carries signed zeros
        [(0.05, 128), (0.0, 16)],
    )
    def test_matches_allocating_sweep(self, grid, coeffs, amplitude, n_nodes):
        eta0 = kb.cos_mode(grid, 1, amplitude)
        T, tol = 2.0, 1e-10
        traj, diag = kb.picard_solve(eta0, T, tol, 30, coeffs, G01, n_nodes=n_nodes)
        br = 1.0 + np.abs(fft_wavenumbers(grid))
        weights = br ** (2.0 * G01.s) * np.exp(2.0 * G01.sigma * br)  # FFT layout
        states, distances = _allocating_sweep(eta0, coeffs, weights, T, n_nodes, tol, 30)
        fine, _ = _allocating_sweep(eta0, coeffs, weights, T, 2 * n_nodes, tol, 30)
        mesh_delta = _full_sup_distance(grid, weights, fine[::2] - states)
        assert traj.half.tobytes() == states.tobytes()  # bit for bit, signs of zeros too
        assert diag.distances == pytest.approx(distances, rel=1e-15, abs=0.0)
        assert diag.mesh_delta == pytest.approx(mesh_delta, rel=1e-15, abs=0.0)

    def test_solve_peak_memory(self, grid, coeffs):
        # the benchmark's solve: 64 nodes and the 128-node mesh check, caches warmed
        eta0 = kb.cos_mode(grid, 1, 0.05)
        solve = lambda: kb.picard_solve(eta0, 2.0, 1e-9, 30, coeffs, G01, n_nodes=64)
        solve()
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fine_mesh_array = (2 * 64 + 1) * (grid.nyquist + 1) * 16
        assert peak <= 6.5 * fine_mesh_array


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
    zero = np.zeros(1)
    with pytest.raises(ValueError):
        kb.Trajectory(grid, np.array([1.0]), state.half[None, :], zero, zero, zero, zero)


def test_antisymmetry_discrete_cancellation(grid, coeffs):
    # i * integral of v * phi-rotation(v) vanishes exactly on the grid
    _, [residuals] = campaign("antisymmetry", grid, G01, coeffs)
    streams = tuple(np.random.default_rng(seed) for seed in (0, 1))
    v = kb.random_fields(grid, "band_limited", streams, 5)
    assert np.all(residuals(v) < 1e-12)
