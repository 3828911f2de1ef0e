"""Radius-of-analyticity machinery: tail-slope estimation, shrinkage law, bounds.

A function analytic on a strip of half-width sigma has Fourier coefficients
decaying like e^{-sigma |xi|}, so the measured radius sigma_hat is the negated
slope of log|c_k| against |xi_k| over the trustworthy band of the spectrum.

Alongside a PDE run the sufficient radius sigma(t) is integrated from

    sigma' = -sigma * (G + G^2),      G(t) = Gevrey norm of eta(t) at (sigma(t), 2),

whose closed-form consequences give a lower bound

    sigma0 * exp{ -(X0 + 2 X0^2) t - (2/3) t^{3/2} Y0 - t^2 Y0^2 }

(the exact antiderivative of the rate envelope A(t) = X0 + sqrt(t) Y0 + 2 X0^2
+ 2 t Y0^2) and an upper bound

    c_upper * sigma0 * exp{ -h2sq * t }.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, evolve_ifrk4
from .norms import GevreyIndex, bracket, gevrey_weights
from .params import CoefficientSet
from .spectral import SpectralGrid, Spectrum


@dataclass(frozen=True)
class RadiusFit:
    """Result of the spectral tail fit; sigma_hat is None when undefined."""

    sigma_hat: float | None
    intercept: float
    r_squared: float
    band: tuple[float, float] | None
    n_points: int
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.sigma_hat is not None


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the radius bound formulas.

    sigma0:  initial radius
    X0:      Gevrey norm of the datum at (sigma0, 2)
    Y0:      calibrated coefficient of the sqrt(t) growth term
    h2sq:    squared H^2 norm of the datum (upper-bound decay rate)
    c_upper: calibrated constant of the upper bound
    """

    sigma0: float
    X0: float
    Y0: float
    h2sq: float
    c_upper: float

    def __post_init__(self):
        for name in ("sigma0", "X0", "Y0", "h2sq", "c_upper"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.sigma0 <= 0 or self.c_upper <= 0:
            raise ValueError("sigma0 and c_upper must be positive")
        if self.X0 < 0 or self.Y0 < 0 or self.h2sq < 0:
            raise ValueError("X0, Y0 and h2sq must be nonnegative")


def estimate_radius(u: Spectrum, noise_floor: float = 1e-8) -> RadiusFit:
    """Least-squares line fit of log|c_k| against |xi_k| over the usable band.

    Modes with |k| <= 1 bias the slope and are excluded, as are modes below
    noise_floor times the peak magnitude.  Each mode k and -k is a point of the
    fit, so a paired mode of half layout counts twice and the unpaired mode
    -n/2 once.  The fit is undefined (a value, not an error) when fewer than 8
    points qualify.  The result is invariant under positive rescaling of the
    spectrum.
    """
    grid = u.grid
    mags = np.abs(u.half)
    mags[-1] *= 2.0  # |c_{-n/2}|, of which half layout holds half
    peak = float(np.max(mags))
    if peak <= 0.0:
        return RadiusFit(None, math.nan, math.nan, None, 0, "spectrum is identically zero")
    mask = (grid.modes >= 2) & (mags > noise_floor * peak)
    w = np.where(grid.modes == grid.nyquist, 1.0, 2.0)[mask]  # points per mode
    n_points = int(np.sum(w))
    if n_points < 8:
        return RadiusFit(
            None, math.nan, math.nan, None, n_points,
            f"only {n_points} modes above the noise floor (need 8)",
        )
    x = grid.wavenumbers[mask]
    y = np.log(mags[mask])
    # the closed-form weighted least-squares line, on centred data (x takes at least 4 values)
    x_mean, y_mean = float(np.sum(w * x)) / n_points, float(np.sum(w * y)) / n_points
    xc, yc = x - x_mean, y - y_mean
    slope = float(np.sum(w * xc * yc)) / float(np.sum(w * xc * xc))
    ss_res = float(np.sum(w * (yc - slope * xc) ** 2))
    ss_tot = float(np.sum(w * yc * yc))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return RadiusFit(
        sigma_hat=max(0.0, -slope),
        intercept=y_mean - slope * x_mean,
        r_squared=r_squared,
        band=(float(np.min(x)), float(np.max(x))),
        n_points=n_points,
    )


def lower_bound_radius(t: float, b: BoundInputs) -> float:
    """Guaranteed lower bound sigma0 e^{-integral of A over [0, t]} for sigma(t)."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    exponent = (
        (b.X0 + 2.0 * b.X0**2) * t
        + 2.0 / 3.0 * t**1.5 * b.Y0
        + t * t * b.Y0**2
    )
    return b.sigma0 * math.exp(-exponent)


def upper_bound_radius(t: float, b: BoundInputs) -> float:
    """Upper bound c_upper * sigma0 * e^{-h2sq t}; log-linear, vanishing as t grows."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return b.c_upper * b.sigma0 * math.exp(-b.h2sq * t)


def _profile_norm(profile: np.ndarray, growth: np.ndarray, sigma: float) -> float:
    """G at sigma of the state with this weighted profile (see _sigma_tracker)."""
    return math.sqrt(float(np.sum(profile * np.exp(sigma * growth))))


def _advance_sigma(profile, growth, sigma, g, dt, max_rel_step):
    """One explicit Euler step of the shrinkage law, sub-stepped.

    g is the Gevrey norm at sigma of the state whose profile is given.  The
    spectrum is frozen over the step; the norm is re-evaluated at the current
    sigma each later substep.  The substep count keeps the relative change of
    sigma below max_rel_step (the rate only shrinks as sigma drops), so sigma
    stays positive whatever its size; the caller judges it against the grid.
    """
    n_sub = max(1, math.ceil((g + g * g) * dt / max_rel_step))
    h = dt / n_sub
    for i in range(n_sub):
        if i:
            g = _profile_norm(profile, growth, sigma)
        sigma = sigma * (1.0 - (g + g * g) * h)
    return sigma


def _sigma_tracker(grid: SpectralGrid, sigma0: float, s: float, max_rel_step: float, series: list):
    """A per-step callable f(t, d) that integrates the shrinkage law into series.

    d is the state in half layout.  The first call (at
    t = 0 in evolve_ifrk4) appends (t, sigma0, G(t)); each later call advances
    sigma over the step from the previous call's state and appends
    (t, sigma(t), G(t)), where G(t) is the Gevrey norm of its state at
    (sigma(t), s); the next step starts from it.  G is read from one profile per
    state, p_k = 2L w_k |d_k|^2 with w = gevrey_weights(grid, 0, s) built once, as
    G(sigma)^2 = sum_k p_k e^{2 sigma <xi_k>}; sigma stays at most sigma0, whose
    weights the march's records guard against overflow.
    """
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    weights = 2.0 * grid.half_length * gevrey_weights(grid, 0.0, s)
    growth = 2.0 * bracket(grid.wavenumbers)
    prev = None  # (t, profile, sigma, G) of the previous call

    def step(t, d):
        nonlocal prev
        profile = weights * (d.real**2 + d.imag**2)
        if prev is None:
            sigma = sigma0
        else:
            prev_t, prev_profile, sigma, g = prev
            sigma = _advance_sigma(prev_profile, growth, sigma, g, t - prev_t, max_rel_step)
        g = _profile_norm(profile, growth, sigma)
        series.append((float(t), float(sigma), g))
        prev = (t, profile, sigma, g)

    return step


def calibrate_bounds(
    times: np.ndarray,
    sigmas: np.ndarray,
    gevreys: np.ndarray,
    X0: float,
    h2: float,
    sigma0: float,
    prefix_fraction: float = 0.1,
) -> BoundInputs:
    """Fit the non-constructive constants from the early part of a tracked run.

    Y0 covers the positive excursions of (G(t) - X0)/sqrt(t) over the prefix
    window (times a safety factor 1.1); c_upper covers sigma(t)/(sigma0 e^{-h2sq t})
    there, floored at 1.
    """
    h2sq = h2 * h2
    t_end = times[-1] * prefix_fraction
    in_prefix = (times > 0.0) & (times <= max(t_end, times[times > 0.0][0] if np.any(times > 0.0) else 0.0))
    if not np.any(in_prefix):
        return BoundInputs(sigma0, X0, 0.0, h2sq, 1.0)
    tp = times[in_prefix]
    ratio_y = np.max((gevreys[in_prefix] - X0) / np.sqrt(tp))
    y0 = 1.1 * max(0.0, float(ratio_y))
    ratio_c = np.max(sigmas[in_prefix] / (sigma0 * np.exp(-h2sq * tp)))
    c_upper = max(1.0, 1.05 * float(ratio_c))
    return BoundInputs(sigma0, X0, y0, h2sq, c_upper)


@dataclass
class TrackedRun:
    """A PDE run with the shrinkage law integrated alongside it.

    Each record's gevrey is G at the fixed index (sigma0, s).  At the record
    times, sigmas holds sigma(t), gevreys G(t) at (sigma(t), s), fits the tail
    fits, and lower and upper the two bounds.
    """

    trajectory: Trajectory
    sigma_series: list[tuple[float, float]]
    fits: list[RadiusFit]
    bounds: BoundInputs
    sigmas: np.ndarray
    gevreys: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def tracked_run(
    eta0: Spectrum,
    T: float,
    dt: float,
    coeffs: CoefficientSet,
    sigma0: float,
    s: float = 2.0,
    record_every: int = 1,
    noise_floor: float = 1e-8,
    max_rel_step: float = 0.01,
    prefix_fraction: float = 0.1,
    blowup_factor: float = 1e6,
) -> TrackedRun:
    """Evolve eta0, integrate sigma(t), fit sigma_hat, and evaluate both bounds.

    sigma is advanced every PDE step; radius fits and records are taken every
    record_every-th step.  The bound constants are calibrated on the first
    prefix_fraction of the run.
    """
    series: list[tuple[float, float, float]] = []
    traj = evolve_ifrk4(
        eta0, T, dt, coeffs,
        on_step=_sigma_tracker(eta0.grid, sigma0, s, max_rel_step, series),
        record_every=record_every,
        gevrey_index=GevreyIndex(sigma0, s),
        blowup_factor=blowup_factor,
    )
    records = traj.records
    tracked = {t: (sigma, g) for t, sigma, g in series}
    rec_times = traj.times()
    rec_sigmas, gevreys = np.array([tracked[t] for t in rec_times]).T
    bounds = calibrate_bounds(
        rec_times, rec_sigmas, gevreys, records[0].gevrey, records[0].h2, sigma0, prefix_fraction
    )
    sigma_series = [(t, sigma) for t, sigma, _ in series]
    fits = [estimate_radius(r.state, noise_floor) for r in records]
    lower = np.array([lower_bound_radius(t, bounds) for t in rec_times])
    upper = np.array([upper_bound_radius(t, bounds) for t in rec_times])
    return TrackedRun(traj, sigma_series, fits, bounds, rec_sigmas, gevreys, lower, upper)
