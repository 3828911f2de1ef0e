"""Radius-of-analyticity machinery: tail-slope estimation, shrinkage law, bounds.

A function analytic on a strip of half-width sigma has Fourier coefficients
decaying like e^{-sigma |xi|}, so the measured radius sigma_hat is the negated
slope of log|c_k| against |xi_k| over the trustworthy band of the spectrum.

Alongside a PDE run the sufficient radius sigma(t) is integrated from

    sigma' = -sigma * (G + G^2),      G(t) = Gevrey norm of eta(t) at (sigma(t), s),

s being the Sobolev index the tracker is given (a run's analyticity.s).  Its
closed-form consequences bound sigma(t) on both sides, with no fitted constant.
The lower bound

    sigma0 * exp{ -(X0 + 2 X0^2) t - (2/3) t^{3/2} Y0 - t^2 Y0^2 }

is the exact antiderivative of the rate envelope A(t) = X0 + sqrt(t) Y0 + 2 X0^2
+ 2 t Y0^2; it holds while G(t) <= X0 + sqrt(t) Y0, and Y0, the largest positive
(G(t) - X0)/sqrt(t) over the tracked series, makes that so.  The upper bound

    sigma0 * exp{ -(m + m^2) t },      m^2 = E / max(1, gamma1, delta1),

holds at s >= 2 with Hamiltonian coefficients, E being the conserved energy (the
smallest recorded one).  There the Gevrey weight <xi>^{2s} e^{2 sigma <xi>} is at
least (1 + |xi|)^4 >= 1 + xi^2 + xi^4, which the energy weight 1 + gamma1 xi^2 +
delta1 xi^4 is at most max(1, gamma1, delta1) times, so G >= m and each tracker
sub-step multiplies sigma by 1 - (G + G^2) h <= e^{-(m + m^2) h}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, evolve_ifrk4
from .norms import GevreyIndex, bracket, gevrey_weights, row_squares
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
    X0:      Gevrey norm of the datum at (sigma0, s)
    Y0:      coefficient of the sqrt(t) growth term (0 while G(t) <= X0)
    m:       floor of G, sqrt(E / max(1, gamma1, delta1)) (the upper bound's rate is m + m^2)
    """

    sigma0: float
    X0: float
    Y0: float
    m: float

    def __post_init__(self):
        for name in ("sigma0", "X0", "Y0", "m"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if self.X0 < 0 or self.Y0 < 0 or self.m < 0:
            raise ValueError("X0, Y0 and m must be nonnegative")


#: The tail fit's floor, a fraction of the peak magnitude: modes below it are left out.
NOISE_FLOOR = 1.0e-8


def estimate_radius(u: Spectrum) -> RadiusFit:
    """Least-squares line fit of log|c_k| against |xi_k| over the usable band.

    Modes with |k| <= 1 bias the slope and are excluded, as are modes below
    NOISE_FLOOR times the peak magnitude.  Each mode k and -k is a point of the
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
    mask = (grid.modes >= 2) & (mags > NOISE_FLOOR * peak)
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
    """Upper bound sigma0 e^{-(m + m^2) t} for sigma(t) at s >= 2 with Hamiltonian coefficients."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return b.sigma0 * math.exp(-(b.m + b.m * b.m) * t)


def _profile_norm(profile: np.ndarray, growth: np.ndarray, sigma: float) -> float:
    """G at sigma of the state with this weighted profile (see _sigma_tracker)."""
    return math.sqrt(float(np.sum(profile * np.exp(sigma * growth))))


#: The most sub-steps the first sigma step of a tracked run may plan (sigma_substeps at X0).
#: A sub-step evaluates one profile norm, 4.4 us at n = 256 and 16 us at n = 4096 (shared
#: 2-core Xeon, numpy 2.4.6), so a first step at the cap takes 0.05-0.16 s; every test, golden,
#: README and benchmark config plans at most 11.
MAX_SIGMA_SUBSTEPS = 10_000


def sigma_substeps(g: float, dt: float, max_rel_step: float) -> int | float:
    """The sub-steps of a sigma step of length dt from Gevrey norm g,
    ceil((g + g^2) dt / max_rel_step) and at least 1; inf where that overflows a float."""
    n_sub = (g + g * g) * dt / max_rel_step
    return max(1, math.ceil(n_sub)) if math.isfinite(n_sub) else math.inf


def _advance_sigma(profile, growth, sigma, g, dt, max_rel_step):
    """One explicit Euler step of the shrinkage law, sub-stepped.

    g is the Gevrey norm at sigma of the state whose profile is given.  The
    spectrum is frozen over the step; the norm is re-evaluated at the current
    sigma each later substep.  The substep count (sigma_substeps) keeps the relative
    change of sigma below max_rel_step (the rate only shrinks as sigma drops), so sigma
    stays positive whatever its size; the caller judges it against the grid.
    """
    n_sub = sigma_substeps(g, dt, max_rel_step)
    h = dt / n_sub
    for i in range(n_sub):
        if i:
            g = _profile_norm(profile, growth, sigma)
        sigma = sigma * (1.0 - (g + g * g) * h)
    return sigma


def _sigma_tracker(grid: SpectralGrid, g: GevreyIndex, max_rel_step: float, series: list):
    """A per-step callable f(t, d) that integrates the shrinkage law from g = (sigma0, s).

    d is the state in half layout.  The first call (at
    t = 0 in evolve_ifrk4) appends (t, sigma0, G(t)) to series; each later call advances
    sigma over the step from series' last entry and the previous call's state and appends
    (t, sigma(t), G(t)), where G(t) is the Gevrey norm of its state at (sigma(t), s); the
    next step starts from it.  G is read from one profile,
    p_k = 2L w_k |d_k|^2 (the out array of row_squares(grid, d, 2L w)), per state as
    G(sigma)^2 = sum_k p_k e^{2 sigma <xi_k>}, w = gevrey_weights(grid, (0, s)) built once;
    sigma stays at most sigma0, whose weights the march's records guard against overflow.
    """
    sigma0 = g.sigma
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    weights = 2.0 * grid.half_length * gevrey_weights(grid, GevreyIndex(0.0, g.s))
    growth = 2.0 * bracket(grid.wavenumbers)
    profile = None  # the previous call's

    def step(t, d):
        nonlocal profile
        prev_profile, profile = profile, np.empty(d.shape)
        row_squares(grid, d, weights, out=profile)
        if series:
            prev_t, sigma, g = series[-1]
            sigma = _advance_sigma(prev_profile, growth, sigma, g, t - prev_t, max_rel_step)
        else:
            sigma = sigma0
        series.append((float(t), float(sigma), _profile_norm(profile, growth, sigma)))

    return step


@dataclass(frozen=True)
class TrackedRun:
    """A PDE run with the shrinkage law integrated alongside it.

    The trajectory's gevrey column is G at the fixed index (sigma0, s).  t, sigma and gevrey
    are the tracker's series, one row per step from t = 0: sigma(t) and G(t) at (sigma(t), s);
    recorded indexes its rows at the trajectory's times, where fits holds the tail fits and
    lower and upper the two bounds.  upper is None where the upper bound does not hold (s < 2,
    or coefficients that conserve no energy), and upper_gap then says why.
    """

    trajectory: Trajectory
    t: np.ndarray
    sigma: np.ndarray
    gevrey: np.ndarray
    recorded: np.ndarray
    fits: tuple[RadiusFit, ...]
    bounds: BoundInputs
    lower: np.ndarray
    upper: np.ndarray | None
    upper_gap: str | None


def tracked_run(
    eta0: Spectrum,
    T: float,
    dt: float,
    coeffs: CoefficientSet,
    g: GevreyIndex,
    record_every: int = 1,
    max_rel_step: float = 0.01,
) -> TrackedRun:
    """Evolve eta0, integrate sigma(t) from g = (sigma0, s), fit sigma_hat, evaluate both bounds.

    sigma is advanced every PDE step; radius fits and records are taken every
    record_every-th step.  Y0 is read from the whole per-step series and m from the
    smallest recorded energy.
    """
    series: list[tuple[float, float, float]] = []
    traj = evolve_ifrk4(
        eta0, T, dt, coeffs, g,
        on_step=_sigma_tracker(eta0.grid, g, max_rel_step, series),
        record_every=record_every,
    )
    t, sigma, gevrey = np.array(series).T
    x0 = float(traj.gevrey[0])
    y0 = float(np.max((gevrey[1:] - x0) / np.sqrt(t[1:]), initial=0.0))
    m = math.sqrt(float(np.min(traj.energy)) / max(1.0, coeffs.gamma1, coeffs.delta1))
    bounds = BoundInputs(g.sigma, x0, y0, m)
    if g.s < 2.0:
        upper_gap = f"s = {g.s:g} < 2, where G need not dominate the energy"
    elif not coeffs.is_hamiltonian:
        upper_gap = "coefficients are not Hamiltonian (gamma != 7/48), so no energy is conserved"
    else:
        upper_gap = None
    fits = tuple(estimate_radius(Spectrum(traj.grid, d)) for d in traj.half)
    lower = np.array([lower_bound_radius(ti, bounds) for ti in traj.t])
    upper = None if upper_gap else np.array([upper_bound_radius(ti, bounds) for ti in traj.t])
    recorded = np.searchsorted(t, traj.t)  # the march steps through the recorded times
    return TrackedRun(traj, t, sigma, gevrey, recorded, fits, bounds, lower, upper, upper_gap)
