"""Time evolution: unitary linear group, nonlinear tendency, Picard fixed point, IFRK4.

In Fourier variables the model reads

    d/dt c_k = -i*phi(xi_k)*c_k + N_k(c),

with the nonlinear tendency

    N(eta) = -i*[ tau(dx) eta^2 - (1/8) psi(dx) eta^3 - (7/48) psi(dx) (eta_x)^2 ].

The linear part is a unitary rotation e^{-i phi t} per mode, so the production
marcher integrates the rotated variable w = e^{i phi t} c with classical RK4
(integrating-factor RK4) on the half-layout state (see spectral), and the
fixed-point solver iterates the equivalent integral equation

    eta(t) = S(t) eta0 + int_0^t S(t - t') N(eta(t')) dt',    S(t) = e^{-i phi t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowUpError, NoConvergenceError
from .norms import GevreyIndex, energy_weights, gevrey_weights, h2_polynomial_weights, row_squares
from .params import CoefficientSet
from .spectral import (
    SpectralGrid,
    Spectrum,
    half_samples,
    half_truncated_sums,
    symbol_on_grid,
)

CUBIC_COEFF = 1.0 / 8.0
DERIV_SQ_COEFF = 7.0 / 48.0

#: Mesh rows the Picard solver passes to the tendency in one call, and states a trajectory
#: measures in one call per column.  The block bounds the tendency's buffers (about 96n
#: bytes a row) and the columns' squares (16n bytes a row); one call per block keeps the
#: per-call overhead off each row.  The benchmark solve (n = 256, 64 nodes and the 128-node
#: mesh check; shared 2-core Xeon, numpy 2.4.6) takes a median 31-34 ms with a traced peak
#: of 1.68 MB; one call per row took 59-66 ms and 1.51 MB, all rows at once 29-31 ms and
#: 4.92 MB.
ROW_BLOCK = 8

#: The march's ceiling on a state's L^2 norm, in multiples of the datum's (see evolve_ifrk4).
BLOWUP_FACTOR = 1.0e6


@dataclass(frozen=True)
class Trajectory:
    """A march or a solve as a table, one row per recorded time: the times t (m,), the
    half-layout states half (m, n/2+1) and, each (m,), their energy, H^2 norm, squared
    polynomial H^2 norm (norms.h2_polynomial_sq) and Gevrey norm at the march's or solve's
    index."""

    grid: SpectralGrid
    t: np.ndarray
    half: np.ndarray
    energy: np.ndarray
    h2: np.ndarray
    h2_polynomial_sq: np.ndarray
    gevrey: np.ndarray

    def __post_init__(self):
        if self.t.size and self.t[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")


def _record_weights(grid: SpectralGrid, coeffs: CoefficientSet, g: GevreyIndex) -> np.ndarray:
    """The squared weights of a trajectory's value columns, stacked (rows, n/2+1): the
    energy weights, the H^2 weights, the polynomial H^2 weights and the Gevrey weights of g;
    built once per march or solve."""
    h2 = gevrey_weights(grid, GevreyIndex(0.0, 2.0))
    rows = [energy_weights(grid, coeffs), h2, h2_polynomial_weights(grid), gevrey_weights(grid, g)]
    return np.stack(rows)


def _trajectory(grid: SpectralGrid, t: np.ndarray, half: np.ndarray, table: np.ndarray):
    """The table of the states half (m, n/2+1) recorded at times t: each column the
    row_squares of the states with one row of the weights of _record_weights, ROW_BLOCK
    states a call, so no temporary grows with m, and each entry bit for bit the value
    norms.energy, norms.sobolev_norm, norms.h2_polynomial_sq or norms.gevrey_norm gives
    that state alone."""
    sums = np.empty((len(table), len(t)))
    power = np.empty((ROW_BLOCK, half.shape[-1]))  # the squares of one block
    for lo in range(0, len(t), ROW_BLOCK):
        block = half[lo : lo + ROW_BLOCK]
        for w, column in zip(table, sums):
            column[lo : lo + len(block)] = row_squares(grid, block, w, out=power[: len(block)])
    energy, h2_sq, h2_polynomial_sq, gevrey_sq = sums
    return Trajectory(grid, t, half, energy, np.sqrt(h2_sq), h2_polynomial_sq, np.sqrt(gevrey_sq))


def _free_group(
    grid: SpectralGrid, coeffs: CoefficientSet, t, out: np.ndarray | None = None
) -> np.ndarray:
    """S(t) = e^{-i phi t} in half layout: (n/2+1,) for a time t, (m, n/2+1) for a column
    of times t (m, 1), written into out when given.  phi reads 0 at n/2, so S(t) leaves the
    unpaired mode fixed.  Each entry rounds t*phi once and takes exp of its negative times
    i, so each row of a column is bit for bit S at its time.  t*phi is a real product
    written into out's real part, so no complex cast buffers a real operand."""
    phi = symbol_on_grid(grid, coeffs, "phi")
    out = np.empty(np.broadcast_shapes(np.shape(t), phi.shape), complex) if out is None else out
    np.multiply(t, phi, out=out.real)
    out.imag = 0.0
    np.multiply(-1j, out, out=out)
    return np.exp(out, out=out)


def linear_propagate(u: Spectrum, t: float, coeffs: CoefficientSet) -> Spectrum:
    """Apply the free group S(t): c_k -> e^{-i phi(xi_k) t} c_k to a real field.

    Every mode is rotated by a unit-modulus factor (the unpaired mode -n/2 by
    1), so all Sobolev and Gevrey norms are preserved exactly and
    S(t1) S(t2) = S(t1 + t2).
    """
    return Spectrum(u.grid, u.half * _free_group(u.grid, coeffs, t))


class _Tendency:
    """N in half layout for states of one leading shape: a call N(d, out) writes N(d) into
    out, both (*shape, n/2+1).

    Every intermediate lives in buffers allocated once, so a call allocates nothing; the
    rows of a stack of states are independent and each comes out as if evaluated alone.
    A call copies d into the input buffer .d, unless d is that buffer: a caller that builds
    its state in .d saves the copy.
    """

    def __init__(self, grid: SpectralGrid, coeffs: CoefficientSet, shape: tuple[int, ...] = ()):
        h = self._h = grid.nyquist
        self._ik = grid.derivative
        self._tau = -1j * symbol_on_grid(grid, coeffs, "tau")
        self._psi = 1j * symbol_on_grid(grid, coeffs, "psi")
        # eta and eta_x share one padded synthesis; psi multiplies both the cubic
        # and the derivative-square term, so by linearity they share one transform.
        self._pair = np.empty((*shape, 2, h + 1), complex)
        self._samples = np.empty((*shape, 2, 4 * h))
        self._cubic = np.empty((*shape, 4 * h))
        self._spectra = np.empty((*shape, 2, 2 * h + 1), complex)
        # row views made once (with both rows squared in one call, a step at n = 256 ran
        # 7 % faster than with views made per call: 246 -> 229 us, medians of 5 rounds)
        self.d, self._ik_d = self._pair[..., 0, :], self._pair[..., 1, :]
        self._eta, self._eta_x = self._samples[..., 0, :], self._samples[..., 1, :]
        # the rows of half_truncated_sums's result, which is a view of _spectra
        self._sq, self._psi_terms = self._spectra[..., 0, : h + 1], self._spectra[..., 1, : h + 1]
        # coefficients as 0-d arrays (see IFRK4Stepper.__init__)
        self._cubic_coeff, self._deriv_sq_coeff = np.array(CUBIC_COEFF), np.array(DERIV_SQ_COEFF)

    def __call__(self, d: np.ndarray, out: np.ndarray) -> np.ndarray:
        samples, cubic, eta, eta_x = self._samples, self._cubic, self._eta, self._eta_x
        if d is not self.d:
            self.d[...] = d
        np.multiply(self._ik, d, out=self._ik_d)
        half_samples(self._pair, samples.shape[-1], out=samples)
        np.multiply(self._cubic_coeff, eta, out=cubic)
        np.multiply(samples, samples, out=samples)  # eta^2 and eta_x^2 from here on
        np.multiply(cubic, eta, out=cubic)
        np.multiply(self._deriv_sq_coeff, eta_x, out=eta_x)
        np.add(cubic, eta_x, out=eta_x)  # the psi terms from here on
        half_truncated_sums(samples, self._h, out=self._spectra)
        sq, psi_terms = self._sq, self._psi_terms
        # symbol first: complex products are not bitwise commutative (see IFRK4Stepper.step)
        np.multiply(self._tau, sq, out=out)
        np.multiply(self._psi, psi_terms, out=psi_terms)
        return np.add(out, psi_terms, out=out)


class IFRK4Stepper:
    """Classical RK4 on d/dt(e^{i phi t} c) = e^{i phi t} N, in half layout.

    With a = e^{-i phi dt/2} and b = a^2, one step is

        k1 = N(c),               k2 = N(a (c + dt/2 k1)),
        k3 = N(a c + dt/2 k2),   k4 = N(b c + dt a k3),
        c' = b c + dt/6 (b k1 + 2 a (k2 + k3) + k4),

    evaluated in buffers allocated once, stages 2-4 built in the tendency's input buffer;
    step returns c' as a fresh array.
    """

    def __init__(self, grid: SpectralGrid, coeffs: CoefficientSet, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self.tendency = _Tendency(grid, coeffs)
        self.e_half = _free_group(grid, coeffs, 0.5 * dt)
        self.e_full = self.e_half * self.e_half
        self._stages = np.empty((5, grid.nyquist + 1), complex)
        # the real factors as 0-d complex arrays: a Python float is converted and cast on
        # every call (a multiply at n = 256 took 1.25 us with it, 0.53 us without), and with
        # a zero imaginary part the product is the same correctly rounded one
        self._half_dt, self._dt, self._sixth_dt, self._two = (
            np.array(f + 0j) for f in (0.5 * dt, dt, dt / 6.0, 2.0)
        )

    def step(self, c: np.ndarray) -> np.ndarray:
        # Complex products are not bitwise commutative here (numpy's SIMD loops round
        # a*b and b*a differently), so each product below keeps the operand order of
        # the formula in the class docstring: the states, and every digest built from
        # them, are those of that formula evaluated with temporaries.
        a, b, N = self.e_half, self.e_full, self.tendency
        half_dt, dt, sixth_dt, two = self._half_dt, self._dt, self._sixth_dt, self._two
        k1, k2, k3, k4, bc = self._stages
        u = N.d
        N(c, out=k1)
        np.multiply(half_dt, k1, out=u)
        np.add(c, u, out=u)
        np.multiply(a, u, out=u)
        N(u, out=k2)
        np.multiply(a, c, out=k4)
        np.multiply(half_dt, k2, out=u)
        np.add(k4, u, out=u)
        N(u, out=k3)
        np.multiply(b, c, out=bc)
        np.multiply(a, k3, out=u)
        np.multiply(dt, u, out=u)
        np.add(bc, u, out=u)
        N(u, out=k4)
        np.add(k2, k3, out=k2)
        np.multiply(a, k2, out=k2)
        np.multiply(two, k2, out=k2)
        np.multiply(b, k1, out=k1)
        np.add(k1, k2, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(sixth_dt, k1, out=k1)
        return np.add(bc, k1)


def step_count(T: float, dt: float) -> int:
    """The number of dt steps in a march to T; ValueError unless T is a whole number of them."""
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"T = {T} is not an integral multiple of dt = {dt}")
    return n_steps


def whole_steps(T: float, dt: float) -> tuple[int, float]:
    """(n, T/n): the n >= 1 steps nearest dt that end a march exactly at T."""
    n_steps = max(1, round(T / dt))
    return n_steps, T / n_steps


def evolve_ifrk4(
    eta0: Spectrum,
    T: float,
    dt: float,
    coeffs: CoefficientSet,
    g: GevreyIndex,
    on_step: Callable[[float, np.ndarray], None] | None = None,
    record_every: int = 1,
) -> Trajectory:
    """March with integrating-factor RK4 from t = 0 to t = T in steps of dt, recording
    every record_every-th step.

    The first and last steps are always recorded.  The trajectory's gevrey column
    holds the Gevrey norm at the fixed index g.
    on_step is called as f(t, d) at every step, t = 0 included, before the step is
    recorded, with d the state in half layout: eta0.half at t = 0, a fresh array
    each later step; an exception it raises ends the march.  A recorded d is copied
    into its row of the trajectory's states.  Raises BlowUpError when the L^2 norm
    of a state exceeds BLOWUP_FACTOR times its initial value or overflows
    (instability, or genuinely large data); on_step never sees that state.
    """
    n_steps = step_count(T, dt)
    grid, d = eta0.grid, eta0.half
    steps = [*range(0, n_steps, record_every), n_steps]
    states = np.empty((len(steps), d.size), complex)
    table = _record_weights(grid, coeffs, g)
    stepper = IFRK4Stepper(grid, coeffs, dt)
    parseval, power = grid.parseval, np.empty(d.shape)  # the squares, one buffer per march

    def l2_norm(d):
        return math.sqrt(row_squares(grid, d, parseval, out=power))

    ceiling = BLOWUP_FACTOR * (l2_norm(d) + np.finfo(float).tiny)
    row, t = 0, 0.0
    for i in range(n_steps + 1):
        if i:
            t = i * dt
            # an overflowing step is caught by its non-finite norm, not by each operation;
            # numpy's errstate objects cannot be entered twice, so each step makes its own
            with np.errstate(over="ignore", invalid="ignore"):
                d = stepper.step(d)
                norm = l2_norm(d)
            if not norm <= ceiling:  # NaN compares false
                raise BlowUpError(t, norm, ceiling)
        if on_step is not None:
            on_step(t, d)
        if i == steps[row]:
            states[row] = d
            row += 1
    return _trajectory(grid, np.array(steps) * dt, states, table)


@dataclass(frozen=True)
class PicardDiagnostics:
    """What a solve measured: each iteration's sup-in-time distance and the doubled mesh's
    shift."""

    distances: tuple[float, ...]
    mesh_delta: float


def _picard_iterate(
    eta0: Spectrum,
    coeffs: CoefficientSet,
    hw: np.ndarray,
    T: float,
    n_nodes: int,
    tol: float,
    max_iter: int,
):
    """Picard iteration on one time mesh in half layout; returns (states, distances), the
    states (n_nodes+1, n/2+1) and the distances in the norm of the folded weights hw.
    Raises NoConvergenceError on a non-finite distance or one still >= tol after max_iter
    iterations.

    The rotations, the current and next iterate, the integrand and one real array live in
    buffers allocated once per mesh; a sweep allocates one real mesh-sized temporary, the
    imaginary squares of its distance (norms.row_squares).
    """
    grid = eta0.grid
    ts = np.linspace(0.0, T, n_nodes + 1)
    dt = T / n_nodes
    block = min(n_nodes + 1, ROW_BLOCK)
    tendency = _Tendency(grid, coeffs, (block,))
    # the last block ends at the last row, so it may recompute rows of the one before it
    starts = [*range(0, n_nodes + 1 - block, block), n_nodes + 1 - block]
    shape = (n_nodes + 1, grid.nyquist + 1)
    e_minus, cur, nxt, rhs = (np.empty(shape, complex) for _ in range(4))
    scratch = np.empty(shape)
    _free_group(grid, coeffs, ts[:, None], out=e_minus)  # S(t_j) per row

    np.multiply(e_minus, eta0.half, out=cur)  # iterate 0: the free evolution
    distances: list[float] = []
    # an overflowing iterate is caught by its non-finite distance, not by each operation
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            for lo in starts:
                tendency(cur[lo : lo + block], out=rhs[lo : lo + block])
            # the integrand S(-t') N(t'), with S(-t') = conj(S(t')) held in nxt until the
            # prefix overwrites it; complex products are not bitwise commutative, so the
            # operand orders below are part of the digests
            np.multiply(np.conjugate(e_minus, out=nxt), rhs, out=rhs)
            # composite trapezoid prefix integrals, each segment scaled before the sum
            prefix = nxt[1:]
            np.add(rhs[:-1], rhs[1:], out=prefix)
            np.multiply(0.5 * dt, prefix, out=prefix)
            np.cumsum(prefix, axis=0, out=prefix)
            nxt[0] = 0.0
            np.add(eta0.half, nxt, out=nxt)
            np.multiply(nxt, e_minus, out=nxt)
            # the sup-in-time distance: the largest weighted square over the mesh rows
            diff = np.subtract(nxt, cur, out=rhs)
            d = math.sqrt(np.max(row_squares(grid, diff, hw, out=scratch)))
            if not np.isfinite(d):
                raise NoConvergenceError(
                    "Picard iterate diverged (non-finite distance); T is too large for the data"
                )
            distances.append(d)
            cur, nxt = nxt, cur
            if d < tol:
                return cur, distances
    raise NoConvergenceError(
        f"no convergence after {max_iter} Picard iterations on {n_nodes} nodes "
        f"(last distance {distances[-1]:.3e}, tol {tol:.3g}); reduce T or the data size"
    )


def picard_solve(
    eta0: Spectrum,
    T: float,
    tol: float,
    max_iter: int,
    coeffs: CoefficientSet,
    g: GevreyIndex,
    n_nodes: int = 64,
) -> tuple[Trajectory, PicardDiagnostics]:
    """Solve the integral equation by Picard iteration on a fixed time mesh.

    Successive iterates are compared in sup-in-time G^{sigma,s} distance; the
    iteration stops below tol, which is read for nothing else.  Diagnostics carry
    the per-iteration distances.  The converged fixed point is recomputed on a
    doubled mesh, and the diagnostics carry its shift, mesh_delta.
    Raises NoConvergenceError after max_iter iterations (T too large for the
    data size).
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    grid = eta0.grid
    table = _record_weights(grid, coeffs, g)
    hw = table[3]  # the Gevrey row
    states, distances = _picard_iterate(eta0, coeffs, hw, T, n_nodes, tol, max_iter)

    fine, _ = _picard_iterate(eta0, coeffs, hw, T, 2 * n_nodes, tol, max_iter)
    shift = np.subtract(fine[::2], states, out=fine[::2])  # fine is not read again
    mesh_delta = math.sqrt(np.max(row_squares(grid, shift, hw)))

    traj = _trajectory(grid, np.linspace(0.0, T, n_nodes + 1), states, table)
    return traj, PicardDiagnostics(tuple(distances), mesh_delta)


def local_existence_time(norm0: float, C_s: float) -> float:
    """Guaranteed existence window 1/(8*C_s*norm0*(1 + norm0)).

    norm0 is the Gevrey norm of the datum and C_s the constant of the nonlinear
    estimates, as estimates.existence_constant bounds it; a zero datum gives +inf.
    """
    if norm0 < 0:
        raise ValueError(f"norm0 must be nonnegative, got {norm0}")
    if C_s <= 0:
        raise ValueError(f"C_s must be positive, got {C_s}")
    if norm0 == 0.0:
        return math.inf
    return 1.0 / (8.0 * C_s * norm0 * (1.0 + norm0))
