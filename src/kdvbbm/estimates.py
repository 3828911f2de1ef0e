"""Randomized probing of the multilinear inequalities behind the local theory.

Empirical constants are reported, never asserted against specific values: the
assertable content is boundedness (ratio maxima stable under grid refinement)
for the in-range estimates, exact universal inequalities (interpolation,
splitting at r = 1, antisymmetry cancellation), and the unbounded-growth
signature of the bilinear estimate below s = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NormOverflowError
from .fields import cos_mode
from .norms import GevreyIndex, bracket, gevrey_weights, row_norms
from .params import DEFAULT_COEFFICIENTS, CoefficientSet
from .spectral import SpectralGrid, half_samples, product_spectra, symbol_on_grid

PROFILES = ("band_limited", "exponential_decay", "polynomial_decay")

#: Standard deviation of the lognormal jitter on the decaying profiles' magnitudes.
JITTER = 0.2

#: Trials run_trials draws and evaluates together on grids of up to 256 modes.  Peak
#: memory grows with trials times modes per block: a default `estimates` run (n = 256)
#: peaks (ru_maxrss) at 39.5 MB one trial at a time, 39.8 MB with 32, 41.5-42.4 MB with
#: 128 and 59.8 MB with 1000, so finer grids get proportionally fewer trials.
TRIAL_BLOCK = 32

#: lemma id -> (number of factors, lower validity bound on s, symbol, differentiate factors)
MULTILINEAR = {
    "bilinear_omega": (2, 0.0, "omega", False),
    "bilinear_tau": (2, 0.0, "tau", False),
    "trilinear_psi": (3, 1.0 / 6.0, "psi", False),
    "derivsq_psi": (2, 1.0, "psi", True),
}

#: Every campaign run_trials runs, in the order a run lists them by default.
CAMPAIGNS = (*MULTILINEAR, "interpolation", "splitting_r1", "antisymmetry")


@dataclass(frozen=True)
class TrialReport:
    """One campaign's max and mean ratio over its trials, at the Gevrey index (sigma, s) on a
    grid of n_modes."""

    lemma_id: str
    s: float
    sigma: float
    n_modes: int
    n_trials: int
    ratio_max: float
    ratio_mean: float
    seed: int


def _streams(seed: int):
    """(normals, phases): a campaign's generators, the children 0 and 1 of SeedSequence(seed)."""
    return tuple(np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(2))


def random_fields(
    grid: SpectralGrid,
    profile: str,
    streams,
    count: int,
    *,
    cutoff: int | None = None,
    rate: float | None = None,
    power: float | None = None,
) -> np.ndarray:
    """count random real-field spectra (count, n/2+1) in half layout, drawn from
    streams = (normals, phases); the unpaired mode n/2 is 0.

    band_limited:        iid complex Gaussian modes up to K = min(cutoff, n/2 - 1), cutoff
                         max(1, n/8) by default, zero above; a row draws 2K + 1 normals (real
                         parts, imaginary parts, c0), so at a fixed cutoff it is the same field
                         on every grid.
    exponential_decay:   |c_k| = e^{-rate |xi_k|} with lognormal jitter, uniform phases.
    polynomial_decay:    |c_k| = <xi_k>^(-power) with the same jitter and phases; a row draws
                         n/2 normals (modes 1..n/2-1, then c0) and n/2 - 1 phases.

    One call per stream for the whole stack equals drawing its rows one after another.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if profile == "exponential_decay" and rate is None:
        raise ValueError("exponential_decay profile requires rate")
    if profile == "polynomial_decay" and power is None:
        raise ValueError("polynomial_decay profile requires power")
    normals, phases = streams
    half = grid.nyquist
    d = np.zeros((count, half + 1), dtype=complex)
    if profile == "band_limited":
        live = max(0, min(max(1, half // 4) if cutoff is None else cutoff, half - 1))
        draws = normals.standard_normal((count, 2 * live + 1))
        d[:, 1 : live + 1] = (draws[:, :live] + 1j * draws[:, live : 2 * live]) / math.sqrt(2.0)
        d[:, 0] = draws[:, -1]
    else:
        # modes 1..n/2-1, then c0 at xi = 0, where the magnitude is the jitter alone
        xi = np.append(grid.wavenumbers[1:half], 0.0)
        jitter = JITTER * normals.standard_normal((count, half))
        if profile == "exponential_decay":
            mags = np.exp(-rate * xi + jitter)
        else:
            mags = bracket(xi) ** (-power) * np.exp(jitter)
        d[:, 1:half] = mags[:, :-1] * np.exp(1j * phases.uniform(0.0, 2.0 * np.pi, (count, half - 1)))
        d[:, 0] = mags[:, -1]
    d *= grid.phase  # d_k = (-1)^k c_k
    return d


# Block kernels.  Each builder checks its arguments and computes what every
# trial shares (weights, symbols) once; the function it returns maps a block of
# half-layout spectra, (b, n/2+1) or (b, arity, n/2+1), to the b per-trial values.
# run_trials evaluates through campaign, which also enforces each multilinear
# estimate's range of s; failure_demo_bilinear calls its kernel below that range.


def _multilinear_values(lemma_id, grid, g, coeffs):
    """Left-side Gevrey norm of the estimate divided by the right-side product.

    bilinear_omega:  |omega(dx)(u v)|_G   / (|u|_G |v|_G)        valid s >= 0
    bilinear_tau:    |tau(dx)(u v)|_G     / (|u|_G |v|_G)        valid s >= 0
    trilinear_psi:   |psi(dx)(u v w)|_G   / (|u|_G |v|_G |w|_G)  valid s >= 1/6
    derivsq_psi:     |psi(dx)(u_x v_x)|_G / (|u|_G |v|_G)        valid s >= 1
    """
    _, _, kind, differentiate = MULTILINEAR[lemma_id]
    weights = gevrey_weights(grid, g)
    symbol = symbol_on_grid(grid, coeffs, kind)

    def values(d):
        operands = d * grid.derivative if differentiate else d
        weighted = product_spectra(operands) * symbol
        denominator = np.multiply.reduce(row_norms(grid, d, weights), axis=1)
        if np.any(denominator == 0.0):
            raise ValueError("estimate ratio requires nonzero fields")
        return row_norms(grid, weighted, weights) / denominator

    return values


def _interpolation_values(grid, sigma, s1, s2, theta):
    """|u|_s / (|u|_s1^theta |u|_s2^(1-theta)) with s = theta*s1 + (1-theta)*s2: at most
    1 + O(eps), by Hoelder on the coefficient measure with no constant."""
    if s1 > s2:
        raise ValueError(f"need s1 <= s2, got {s1} > {s2}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    s = theta * s1 + (1.0 - theta) * s2
    weights = [gevrey_weights(grid, GevreyIndex(sigma, t)) for t in (s, s1, s2)]

    def values(d):
        lhs, n1, n2 = (row_norms(grid, d, w) for w in weights)
        if np.any(n1 == 0.0) or np.any(n2 == 0.0):
            raise ValueError("interpolation check requires a nonzero field")
        # Python's float power is libm pow; numpy's vectorised power can differ in the last bit
        rhs = [a**theta * b ** (1.0 - theta) for a, b in zip(n1.tolist(), n2.tolist())]
        return lhs / np.array(rhs)

    return values


def _splitting_parts(grid, g, r):
    """The terms of |J^{s,sigma}u| <= c1 |J^s u| + c2 sigma^r |J^{s+r,sigma}u| at g = (sigma, s),
    which holds with c1 = c2 = 1 at r = 1 (pointwise e^x <= 1 + x e^x plus Minkowski)."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    indices = (g, GevreyIndex(0.0, g.s), GevreyIndex(g.sigma, g.s + r))
    weights = [gevrey_weights(grid, index) for index in indices]
    factor = g.sigma**r

    def parts(d):
        """|J^{s,sigma}u|, |J^s u| and sigma^r |J^{s+r,sigma}u| per row."""
        lhs, sobolev, shifted = (row_norms(grid, d, w) for w in weights)
        return lhs, sobolev, factor * shifted

    return parts


def _antisymmetry_values(grid, coeffs):
    """Normalized residual of (v, inverse transform of i*phi*v) = 0 for a real field v: phi
    is odd and real, so the residual is pure rounding."""
    # rows v and i*phi*v, v's index n/2 doubled (see half_samples); phi reads 0 there
    phi = symbol_on_grid(grid, coeffs, "phi")
    synthesis = np.stack([np.append(np.ones(grid.nyquist), 2.0), 1j * phi])
    quad = 2.0 * grid.half_length / grid.n_modes

    def values(d):
        v, w = np.moveaxis(half_samples(synthesis * d[:, None, :], grid.n_modes), 1, 0)
        # a (1, n) @ (n, 1) product per row: the BLAS dot product np.dot takes
        inner = quad * (v[:, None, :] @ w[:, :, None])[:, 0, 0]
        norm_sq = quad * (v[:, None, :] @ v[:, :, None])[:, 0, 0]
        return np.abs(inner) / (norm_sq + np.finfo(float).tiny)

    return values


@dataclass(frozen=True)
class FailureDemo:
    """Growth record of the bilinear ratio below the s >= 0 validity range."""

    s: float
    rows: tuple  # (mode k, n_modes, ratio)
    monotone: bool
    growth_exponent: float  # slope of log ratio against log k


def failure_demo_bilinear(
    s_negative: float,
    ks=(8, 16, 32, 64),
    coeffs: CoefficientSet = DEFAULT_COEFFICIENTS,
) -> FailureDemo:
    """Adversarial pairs showing the bilinear estimate degrade for s < 0.

    u and v are single cosine modes at k and k-1 on a grid of half-length pi
    with at least 4k modes, whose product puts mass at the lowest nonzero
    wavenumber where the bracket weight is largest for negative s while the
    inputs' norms shrink like <xi_k>^s.  The ratio then
    grows without bound in k (sigma = 0; a positive sigma would mask the
    effect by exponentially penalizing the inputs).
    """
    if s_negative >= 0:
        raise ValueError(f"failure demo requires s < 0, got {s_negative}")
    if len(ks) < 2 or min(ks) < 2 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError(f"need two or more strictly increasing modes k >= 2, got {list(ks)}")
    g = GevreyIndex(0.0, s_negative)
    rows = []
    for k in ks:
        n = max(64, 2 ** math.ceil(math.log2(4 * k)))
        grid = SpectralGrid(n, math.pi)
        u = cos_mode(grid, k, 1.0)
        v = cos_mode(grid, k - 1, 1.0)
        ratio = _multilinear_values("bilinear_omega", grid, g, coeffs)(np.array([[u.half, v.half]]))[0]
        rows.append((k, n, float(ratio)))
    ratios = np.array([r for (_, _, r) in rows])
    monotone = bool(np.all(np.diff(ratios) > 0.0))
    # the closed-form least-squares slope on centred data, as in estimate_radius (polyfit's
    # LAPACK call would map OpenBLAS's buffers, about 1.1 MB of peak RSS)
    x, y = np.log([k for (k, _, _) in rows]), np.log(ratios)
    xc, yc = x - np.mean(x), y - np.mean(y)
    slope = float(np.sum(xc * yc)) / float(np.sum(xc * xc))
    return FailureDemo(s=s_negative, rows=tuple(rows), monotone=monotone, growth_exponent=slope)


def _trials_per_block(grid):
    """TRIAL_BLOCK on grids of up to 256 modes, fewer on finer ones (8 at n = 1024)."""
    return max(1, min(TRIAL_BLOCK, TRIAL_BLOCK * 256 // grid.n_modes))


def campaign(lemma_id, grid, g, coeffs, combos=()):
    """(arity, kernels) of a campaign, one kernel per report; arity 0 marks one field per
    trial, blocks (b, n/2+1).  The interpolation campaign has one kernel per (s1, s2, theta)
    of combos, which every other campaign ignores; the others have one.

    The one check of a campaign's preconditions: it raises ValueError for an s below a
    multilinear estimate's validity range or a bad combo, and NormOverflowError for a
    weight that overflows on the grid.
    """
    if lemma_id in MULTILINEAR:
        arity, s_min = MULTILINEAR[lemma_id][:2]
        if g.s < s_min - 1e-12:
            raise ValueError(f"{lemma_id} requires s >= {s_min}, got s = {g.s}")
        return arity, [_multilinear_values(lemma_id, grid, g, coeffs)]
    if lemma_id == "interpolation":
        if not combos:
            raise ValueError("interpolation campaign requires combos of (s1, s2, theta)")
        return 0, [_interpolation_values(grid, g.sigma, *combo) for combo in combos]
    if lemma_id == "splitting_r1":
        parts = _splitting_parts(grid, g, 1.0)

        def ratios(c):
            lhs, sob, shifted = parts(c)
            rhs = sob + shifted
            return np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0.0)

        return 0, [ratios]
    if lemma_id == "antisymmetry":
        return 0, [_antisymmetry_values(grid, coeffs)]
    raise ValueError(f"unknown lemma_id {lemma_id!r}")


def run_trials(
    lemma_id: str,
    grid: SpectralGrid,
    g: GevreyIndex,
    coeffs: CoefficientSet,
    n_trials: int = 1000,
    seed: int = 0,
    profile: str = "band_limited",
    combos=(),
    **profile_kw,
) -> list[TrialReport]:
    """Run a seeded campaign and reduce each of its kernels to max/mean of the per-trial
    statistic: one report per kernel of campaign(lemma_id, grid, g, coeffs, combos).

    The campaign draws its trials in order from the one pair of streams of seed; a
    multilinear trial takes its arity fields as consecutive rows.  Each block of
    _trials_per_block(grid) trials is drawn in one call per stream, which equals drawing
    the trials one at a time, and evaluated by every kernel; the max is exact and the mean
    sums the per-trial values left to right: the reports are reproducible bit-for-bit
    whatever the block size.  For the interpolation campaign reports[i] belongs to
    combos[i]; a report does not name its combo.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    arity, kernels = campaign(lemma_id, grid, g, coeffs, combos)
    streams = _streams(seed)
    size = _trials_per_block(grid)
    values = [[] for _ in kernels]
    for start in range(0, n_trials, size):
        b = min(size, n_trials - start)
        c = random_fields(grid, profile, streams, b * max(arity, 1), **profile_kw)
        c = c.reshape(b, arity, -1) if arity else c
        for kernel, vals in zip(kernels, values):
            vals.extend(kernel(c).tolist())
    return [
        TrialReport(lemma_id, g.s, g.sigma, grid.n_modes, n_trials, max(vals), sum(vals) / n_trials, seed)
        for vals in values
    ]


def constant_bound(lemma_id: str, grid: SpectralGrid, g: GevreyIndex, coeffs: CoefficientSet) -> float:
    """Cauchy-Schwarz upper bound on every ratio of a multilinear estimate on the grid:
    ratio^2 <= max_k w_k^2 m_k^2 S_k / (2L)^(arity-1), w_k^2 = <xi_k>^{2s} e^{2 sigma <xi_k>},
    m the symbol, S the arity-fold convolution over the modes |j| < n/2 of f = 1/w^2 (xi^2/w^2
    for derivsq_psi), even in k like w and m^2.  Summed from f tilted by e^{2 sigma (1 + xi_j)},
    every term is O(1) and positive, so np.convolve's direct sums lose nothing.  A bound that
    is not finite in double precision (f overflows at a very negative s) raises
    NormOverflowError."""
    arity, _, kind, differentiate = MULTILINEAR[lemma_id]
    h = grid.nyquist
    xi = grid.wavenumbers[:h]
    br = bracket(xi)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound that is not finite raises below
        tilted = br ** (-2.0 * g.s) * (xi * xi if differentiate else 1.0)  # modes 0..h-1
        f = np.concatenate([(tilted * np.exp(-4.0 * g.sigma * xi))[:0:-1], tilted])  # 1-h..h-1
        sums = reduce(np.convolve, [f] * arity)[arity * (h - 1) :][:h]  # modes 0..h-1
        m = symbol_on_grid(grid, coeffs, kind)[:h]
        top = float(np.max(br ** (2.0 * g.s) * m * m * sums))
        untilt = math.exp(2.0 * g.sigma * (1 - arity))  # e^{2 sigma <xi_k>} / e^{2 sigma (arity + xi_k)}
        bound = math.sqrt(top * untilt / (2.0 * grid.half_length) ** (arity - 1))
    if not math.isfinite(bound):
        raise NormOverflowError(
            f"the {lemma_id} bound overflows at s = {g.s}; s is too small for this grid"
        )
    return bound


def existence_constant(grid: SpectralGrid, g: GevreyIndex, coeffs: CoefficientSet) -> float:
    """The nonlinear-estimate constant C_s: the largest constant_bound of the three estimates
    feeding the contraction (quadratic, cubic, derivative-square).  Deterministic, and a bound
    on the grid at every (sigma, s): unlike the continuum lemmas it needs no s >= 1."""
    lemmas = ("bilinear_tau", "trilinear_psi", "derivsq_psi")
    return max(constant_bound(one, grid, g, coeffs) for one in lemmas)
