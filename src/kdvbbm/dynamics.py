"""Time evolution: unitary linear group, nonlinear tendency, Picard fixed point, IFRK4.

In Fourier variables the model reads

    d/dt c_k = -i*phi(xi_k)*c_k + N_k(c),

with the nonlinear tendency

    N(eta) = -i*[ tau(dx) eta^2 - (1/8) psi(dx) eta^3 - (7/48) psi(dx) (eta_x)^2 ].

The linear part is a unitary rotation e^{-i phi t} per mode, so the production
marcher integrates the rotated variable w = e^{i phi t} c with classical RK4
(integrating-factor RK4) on the half-layout state of spectral.half_spectrum,
and the fixed-point solver iterates the equivalent integral equation

    eta(t) = S(t) eta0 + int_0^t S(t - t') N(eta(t')) dt',    S(t) = e^{-i phi t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import BlowUpError, NoConvergenceError, QuadratureError
from .norms import GevreyIndex, energy, gevrey_norm, gevrey_weights, sobolev_norm
from .params import CoefficientSet
from .spectral import (
    SpectralGrid,
    Spectrum,
    full_spectrum,
    half_padded_samples,
    half_spectrum,
    half_truncated_spectrum,
    symbol_on_grid,
)

CUBIC_COEFF = 1.0 / 8.0
DERIV_SQ_COEFF = 7.0 / 48.0


@dataclass(frozen=True)
class SampleRecord:
    t: float
    state: Spectrum
    energy: float
    h2: float
    gevrey: float | None = None


@dataclass
class Trajectory:
    coeffs: CoefficientSet
    grid: SpectralGrid
    records: list[SampleRecord]

    def __post_init__(self):
        if self.records and self.records[0].t != 0.0:
            raise ValueError("trajectory must start at t = 0")

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    @property
    def final(self) -> SampleRecord:
        return self.records[-1]


def _sample(
    t: float, state: Spectrum, coeffs: CoefficientSet, g: GevreyIndex | None
) -> SampleRecord:
    """The record of one state: energy, H^2 norm and, when g is given, the Gevrey norm."""
    gevrey = None if g is None else gevrey_norm(state, g)
    return SampleRecord(t, state, energy(state, coeffs), sobolev_norm(state, 2.0), gevrey)


def linear_propagate(u: Spectrum, t: float, coeffs: CoefficientSet) -> Spectrum:
    """Apply the free group S(t): c_k -> e^{-i phi(xi_k) t} c_k to a real field.

    Every mode is rotated by a unit-modulus factor (the unpaired mode -n/2 by
    1), so all Sobolev and Gevrey norms are preserved exactly and
    S(t1) S(t2) = S(t1 + t2).
    """
    phi = _half_symbols(u.grid, coeffs)[0]
    return Spectrum(u.grid, full_spectrum(half_spectrum(u.coeffs) * np.exp((-1j * t) * phi)))


def _half_symbols(grid: SpectralGrid, coeffs: CoefficientSet) -> tuple[np.ndarray, ...]:
    """phi, i*xi, -i*tau and i*psi at k = 0..n/2, all 0 at n/2 (symbol_on_grid reads the odd
    symbols so): the free group and the tendency leave the unpaired mode fixed."""
    h = grid.nyquist
    phi, tau, psi = (symbol_on_grid(grid, coeffs, kind)[: h + 1] for kind in ("phi", "tau", "psi"))
    return phi, np.append(1j * grid.wavenumbers[:h], 0.0), -1j * tau, 1j * psi


def _tendency(symbols: tuple[np.ndarray, ...], d: np.ndarray) -> np.ndarray:
    """N in half layout: d and the result hold (-1)^k c_k, k = 0..n/2 (see half_spectrum)."""
    _, ik, tau, psi = symbols
    # eta and eta_x share one padded synthesis; psi multiplies both the cubic
    # and the derivative-square term, so by linearity they share one transform.
    eta, eta_x = half_padded_samples(np.array([d, ik * d]))
    eta_sq = eta * eta
    sq, psi_terms = half_truncated_spectrum(
        np.array([eta_sq, (CUBIC_COEFF * eta) * eta_sq + DERIV_SQ_COEFF * (eta_x * eta_x)])
    )
    return tau * sq + psi * psi_terms


class IFRK4Stepper:
    """Classical RK4 on d/dt(e^{i phi t} c) = e^{i phi t} N, in half layout (half_spectrum)."""

    def __init__(self, grid: SpectralGrid, coeffs: CoefficientSet, dt: float):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self.symbols = _half_symbols(grid, coeffs)
        self.e_half = np.exp((-0.5j * dt) * self.symbols[0])
        self.e_full = self.e_half * self.e_half

    def step(self, c: np.ndarray) -> np.ndarray:
        dt, a, b = self.dt, self.e_half, self.e_full
        rhs = lambda z: _tendency(self.symbols, z)
        k1 = rhs(c)
        k2 = rhs(a * (c + (0.5 * dt) * k1))
        k3 = rhs(a * c + (0.5 * dt) * k2)
        k4 = rhs(b * c + dt * (a * k3))
        return b * c + (dt / 6.0) * (b * k1 + 2.0 * (a * (k2 + k3)) + k4)


def _step_count(T: float, dt: float) -> int:
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"T = {T} is not an integral multiple of dt = {dt}")
    return n_steps


def iterate_ifrk4(
    eta0: Spectrum,
    T: float,
    dt: float,
    coeffs: CoefficientSet,
    blowup_factor: float = 1e6,
) -> Iterator[tuple[float, Spectrum]]:
    """Yield (t, state) from t = 0 to t = T in steps of dt.

    Raises BlowUpError when the L^2 norm of the state exceeds blowup_factor
    times its initial value or overflows (instability, or genuinely large
    data), and SymmetryError when eta0 is not the spectrum of a real field.
    """
    grid = eta0.grid
    n_steps = _step_count(T, dt)
    stepper = IFRK4Stepper(grid, coeffs, dt)
    d = half_spectrum(eta0.coeffs)
    scale = float(np.sqrt(np.sum(np.abs(eta0.coeffs) ** 2)))
    ceiling = blowup_factor * (scale + np.finfo(float).tiny)
    yield 0.0, eta0
    for i in range(1, n_steps + 1):
        # an overflowing step is caught by its non-finite size, not by each operation
        with np.errstate(over="ignore", invalid="ignore"):
            d = stepper.step(d)
            c = full_spectrum(d)
            size = float(np.sqrt(np.sum(np.abs(c) ** 2)))
        t = i * dt
        if not np.isfinite(size) or size > ceiling:
            raise BlowUpError(t, size, ceiling)
        yield t, Spectrum(grid, c)


def evolve_ifrk4(
    eta0: Spectrum,
    T: float,
    dt: float,
    coeffs: CoefficientSet,
    on_step: Callable[[float, Spectrum], None] | None = None,
    record_every: int = 1,
    gevrey_index: GevreyIndex | None = None,
    blowup_factor: float = 1e6,
) -> Trajectory:
    """March with integrating-factor RK4, recording every record_every-th step.

    The first and last steps are always recorded.  When gevrey_index is given,
    each record carries the Gevrey norm at that fixed index.  on_step is called
    as f(t, state) at every step, t = 0 included, before the step is recorded;
    an exception it raises ends the march.
    """
    n_steps = _step_count(T, dt)
    records: list[SampleRecord] = []
    for i, (t, state) in enumerate(iterate_ifrk4(eta0, T, dt, coeffs, blowup_factor)):
        if on_step is not None:
            on_step(t, state)
        if i % record_every == 0 or i == n_steps:
            records.append(_sample(t, state, coeffs, gevrey_index))
    return Trajectory(coeffs, eta0.grid, records)


@dataclass
class PicardDiagnostics:
    iterations: int
    distances: list[float]
    ratios: list[float]
    contraction_ratio: float
    mesh_delta: float | None


def _sup_distance(grid: SpectralGrid, weights: np.ndarray, diff: np.ndarray) -> float:
    """Largest weighted norm over the rows (mesh times) of diff."""
    sq_norms = np.sum(weights * np.abs(diff) ** 2, axis=1)
    return float(np.sqrt(2.0 * grid.half_length * np.max(sq_norms)))


def _picard_iterate(
    eta0: Spectrum,
    coeffs: CoefficientSet,
    weights: np.ndarray,
    T: float,
    n_nodes: int,
    tol: float,
    max_iter: int,
):
    """Picard iteration on one time mesh in half layout; returns (states, distances).  Raises
    NoConvergenceError on a non-finite distance or one still >= tol after max_iter iterations."""
    grid = eta0.grid
    ts = np.linspace(0.0, T, n_nodes + 1)
    dt = T / n_nodes
    symbols = _half_symbols(grid, coeffs)
    e_minus = np.exp(-1j * np.outer(ts, symbols[0]))  # S(t_j) per row
    e_plus = np.conj(e_minus)
    eta0_h = half_spectrum(eta0.coeffs)

    cur = e_minus * eta0_h[None, :]  # iterate 0: the free evolution
    distances: list[float] = []
    # an overflowing iterate is caught by its non-finite distance, not by each operation
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            rhs_rows = np.array([_tendency(symbols, row) for row in cur])
            # complex products are not bitwise commutative: the operand orders are part of the digests
            integrand = e_plus * rhs_rows
            # composite trapezoid prefix integrals of S(-t') N(t')
            segments = 0.5 * dt * (integrand[:-1] + integrand[1:])
            prefix = np.vstack([np.zeros_like(eta0_h), np.cumsum(segments, axis=0)])
            new = (eta0_h[None, :] + prefix) * e_minus
            d = _sup_distance(grid, weights, full_spectrum(new - cur))
            if not np.isfinite(d):
                raise NoConvergenceError(
                    "Picard iterate diverged (non-finite distance); T is too large for the data"
                )
            distances.append(d)
            cur = new
            if d < tol:
                return full_spectrum(cur), distances
    raise NoConvergenceError(
        f"no convergence after {max_iter} Picard iterations on {n_nodes} nodes "
        f"(last distance {distances[-1]:.3e}); reduce T or the data size"
    )


def picard_solve(
    eta0: Spectrum,
    T: float,
    tol: float,
    max_iter: int,
    coeffs: CoefficientSet,
    g: GevreyIndex,
    n_nodes: int = 64,
    mesh_check: bool = True,
) -> tuple[Trajectory, PicardDiagnostics]:
    """Solve the integral equation by Picard iteration on a fixed time mesh.

    Successive iterates are compared in sup-in-time G^{sigma,s} distance; the
    iteration stops below tol.  Diagnostics carry the per-iteration distances
    and contraction ratios.  With mesh_check on, the converged fixed point is
    recomputed on a doubled mesh and a shift beyond tol raises QuadratureError.
    Raises NoConvergenceError after max_iter iterations (T too large for the
    data size).
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    grid = eta0.grid
    weights = gevrey_weights(grid, g.sigma, g.s)
    states, distances = _picard_iterate(eta0, coeffs, weights, T, n_nodes, tol, max_iter)

    mesh_delta = None
    if mesh_check:
        fine, _ = _picard_iterate(eta0, coeffs, weights, T, 2 * n_nodes, tol, max_iter)
        mesh_delta = _sup_distance(grid, weights, fine[::2] - states)
        if mesh_delta > tol:
            raise QuadratureError(mesh_delta, tol)

    ratios = [
        distances[i + 1] / distances[i]
        for i in range(len(distances) - 1)
        if distances[i] > 0.0
    ]
    # ratios where the later distance sits at the noise floor say nothing
    meaningful = [
        r
        for i, r in enumerate(ratios)
        if distances[i + 1] > 10.0 * tol
    ]
    contraction = max(meaningful) if meaningful else (max(ratios) if ratios else 0.0)

    ts = np.linspace(0.0, T, n_nodes + 1)
    records = [_sample(float(t), Spectrum(grid, c), coeffs, g) for t, c in zip(ts, states)]
    diag = PicardDiagnostics(len(distances), distances, ratios, contraction, mesh_delta)
    return Trajectory(coeffs, grid, records), diag


def local_existence_time(norm0: float, C_s: float) -> float:
    """Guaranteed existence window 1/(8*C_s*norm0*(1 + norm0)).

    norm0 is the Gevrey norm of the datum and C_s the (empirical) constant of
    the nonlinear estimates; a zero datum gives +inf.
    """
    if norm0 < 0:
        raise ValueError(f"norm0 must be nonnegative, got {norm0}")
    if C_s <= 0:
        raise ValueError(f"C_s must be positive, got {C_s}")
    if norm0 == 0.0:
        return math.inf
    return 1.0 / (8.0 * C_s * norm0 * (1.0 + norm0))
