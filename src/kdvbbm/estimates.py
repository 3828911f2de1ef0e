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

import numpy as np

from .fields import cos_mode
from .norms import GevreyIndex, bracket, gevrey_weights, row_norms
from .params import DEFAULT_COEFFICIENTS, CoefficientSet
from .spectral import SpectralGrid, Spectrum, product_spectra, real_samples, symbol_on_grid

PROFILES = ("band_limited", "exponential_decay", "polynomial_decay")

#: Standard deviation of the lognormal jitter on the decaying profiles' magnitudes.
JITTER = 0.2

#: Trials run_trials evaluates together on grids of up to 256 modes.  Peak memory
#: grows with trials times modes per block: a default `estimates` run (n = 256)
#: peaks (ru_maxrss) at 40.2-40.5 MB one trial at a time, 41.2 MB with 32, 46.1 MB
#: with 128 and 85.6 MB with 1000, so finer grids get proportionally fewer trials.
TRIAL_BLOCK = 32

#: lemma id -> (number of factors, lower validity bound on s, symbol, differentiate factors)
MULTILINEAR = {
    "bilinear_omega": (2, 0.0, "omega", False),
    "bilinear_tau": (2, 0.0, "tau", False),
    "trilinear_psi": (3, 1.0 / 6.0, "psi", False),
    "derivsq_psi": (2, 1.0, "psi", True),
}


@dataclass(frozen=True)
class TrialReport:
    lemma_id: str
    n_trials: int
    ratio_max: float
    ratio_mean: float
    seed: int
    config: dict

    def csv_row(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "s": self.config.get("s"),
            "sigma": self.config.get("sigma"),
            "n_modes": self.config.get("n_modes"),
            "n_trials": self.n_trials,
            "ratio_max": self.ratio_max,
            "ratio_mean": self.ratio_mean,
            "seed": self.seed,
        }


def random_fields(
    grid: SpectralGrid,
    profile: str,
    seeds,
    *,
    cutoff: int | None = None,
    rate: float | None = None,
    power: float | None = None,
) -> np.ndarray:
    """Hermitian-symmetric random spectra (len(seeds), n); row i is determined by seeds[i].

    band_limited:        iid complex Gaussian modes up to cutoff (default n/8), zero above.
    exponential_decay:   |c_k| = e^{-rate |xi_k|} with lognormal jitter, uniform phases.
    polynomial_decay:    |c_k| = <xi_k>^(-power) with the same jitter and phases.

    Each row draws from its own np.random.default_rng(seed); everything after
    the draws is done once for the whole stack.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    if profile == "exponential_decay" and rate is None:
        raise ValueError("exponential_decay profile requires rate")
    if profile == "polynomial_decay" and power is None:
        raise ValueError("polynomial_decay profile requires power")
    n = grid.n_modes
    half = n // 2
    first = np.empty((len(seeds), half - 1))  # real parts, or log-jitter
    second = np.empty((len(seeds), half - 1))  # imaginary parts, or phases
    c0 = np.empty(len(seeds))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=first[row])
        if profile == "band_limited":
            rng.standard_normal(out=second[row])
            c0[row] = rng.standard_normal()
        else:
            second[row] = rng.uniform(0.0, 2.0 * np.pi, half - 1)
            # the scalar math.exp, not np.exp on the stack: the two can differ in the last bit
            c0[row] = math.exp(JITTER * rng.standard_normal())
    c = np.zeros((len(seeds), n), dtype=complex)
    if profile == "band_limited":
        cut = half // 4 if cutoff is None else cutoff
        c[:, 1:half] = (first + 1j * second) / math.sqrt(2.0)
        c[:, 1 + max(cut, 0) : half] = 0.0  # modes above the cutoff
    else:
        xi_pos = np.pi * np.arange(1, half) / grid.half_length
        if profile == "exponential_decay":
            mags = np.exp(-rate * xi_pos + JITTER * first)
        else:
            mags = bracket(xi_pos) ** (-power) * np.exp(JITTER * first)
        c[:, 1:half] = mags * np.exp(1j * second)
    c[:, half + 1 :] = np.conj(c[:, half - 1 : 0 : -1])
    c[:, 0] = c0
    return c


def random_field(grid: SpectralGrid, profile: str, seed, **profile_kw) -> Spectrum:
    """One row of random_fields: the random spectrum drawn from seed."""
    return Spectrum(grid, random_fields(grid, profile, [seed], **profile_kw)[0])


# Block kernels.  Each builder checks its arguments and computes what every
# trial shares (weights, symbols) once; the function it returns maps a block of
# spectra, (b, n) or (b, arity, n), to the b per-trial values.  run_trials and
# failure_demo_bilinear evaluate through them.


def _weights(grid, sigma, s):
    g = GevreyIndex(sigma, s)  # rejects a negative or non-finite sigma and a non-finite s
    return gevrey_weights(grid, g.sigma, g.s)


def _multilinear_values(lemma_id, grid, g, coeffs, strict=True):
    """Left-side Gevrey norm of the estimate divided by the right-side product.

    bilinear_omega:  |omega(dx)(u v)|_G   / (|u|_G |v|_G)        valid s >= 0
    bilinear_tau:    |tau(dx)(u v)|_G     / (|u|_G |v|_G)        valid s >= 0
    trilinear_psi:   |psi(dx)(u v w)|_G   / (|u|_G |v|_G |w|_G)  valid s >= 1/6
    derivsq_psi:     |psi(dx)(u_x v_x)|_G / (|u|_G |v|_G)        valid s >= 1

    In strict mode an s below the validity bound raises ValueError; non-strict
    mode permits the below-range failure demonstration.
    """
    _, s_min, kind, differentiate = MULTILINEAR[lemma_id]
    if strict and g.s < s_min - 1e-12:
        raise ValueError(f"{lemma_id} requires s >= {s_min}, got s = {g.s}")
    weights = _weights(grid, g.sigma, g.s)
    symbol = symbol_on_grid(grid, coeffs, kind)

    def values(c):
        operands = c
        if differentiate:
            operands = c * (1j * grid.wavenumbers)
            operands[..., grid.nyquist] = 0.0
        weighted = product_spectra(operands) * symbol
        denominator = np.multiply.reduce(row_norms(grid, c, weights), axis=1)
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
    weights = [_weights(grid, sigma, t) for t in (s, s1, s2)]

    def values(c):
        lhs, n1, n2 = (row_norms(grid, c, w) for w in weights)
        if np.any(n1 == 0.0) or np.any(n2 == 0.0):
            raise ValueError("interpolation check requires a nonzero field")
        # Python's float power is libm pow; numpy's vectorised power can differ in the last bit
        rhs = [a**theta * b ** (1.0 - theta) for a, b in zip(n1.tolist(), n2.tolist())]
        return lhs / np.array(rhs)

    return values


def _splitting_parts(grid, s, r, sigma):
    """The terms of |J^{s,sigma}u| <= c1 |J^s u| + c2 sigma^r |J^{s+r,sigma}u|, which holds
    with c1 = c2 = 1 at r = 1 (pointwise e^x <= 1 + x e^x plus Minkowski)."""
    if r < 0 or sigma < 0:
        raise ValueError("r and sigma must be nonnegative")
    weights = [_weights(grid, sigma, s), _weights(grid, 0.0, s), _weights(grid, sigma, s + r)]
    factor = sigma**r

    def parts(c):
        """|J^{s,sigma}u|, |J^s u| and sigma^r |J^{s+r,sigma}u| per row."""
        lhs, sobolev, shifted = (row_norms(grid, c, w) for w in weights)
        return lhs, sobolev, factor * shifted

    return parts


def _antisymmetry_values(grid, coeffs):
    """Normalized residual of (v, inverse transform of i*phi*v) = 0 for a real field v: phi
    is odd and real, so the residual is pure rounding."""
    rotation = 1j * symbol_on_grid(grid, coeffs, "phi")
    quad = 2.0 * grid.half_length / grid.n_modes

    def values(c):
        v, w = np.moveaxis(real_samples(grid, np.stack([c, rotation * c], axis=1)), 1, 0)
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
    half_length: float = math.pi,
    coeffs: CoefficientSet = DEFAULT_COEFFICIENTS,
) -> FailureDemo:
    """Adversarial pairs showing the bilinear estimate degrade for s < 0.

    u and v are single cosine modes at k and k-1, whose product puts mass at
    the lowest nonzero wavenumber where the bracket weight is largest for
    negative s while the inputs' norms shrink like <xi_k>^s.  The ratio then
    grows without bound in k (sigma = 0; a positive sigma would mask the
    effect by exponentially penalizing the inputs).
    """
    if s_negative >= 0:
        raise ValueError(f"failure demo requires s < 0, got {s_negative}")
    g = GevreyIndex(0.0, s_negative)
    rows = []
    for k in ks:
        if k < 2:
            raise ValueError("modes must satisfy k >= 2")
        n = max(64, 2 ** math.ceil(math.log2(4 * k)))
        grid = SpectralGrid(n, half_length)
        u = cos_mode(grid, k, 1.0)
        v = cos_mode(grid, k - 1, 1.0)
        ratio = _multilinear_values("bilinear_omega", grid, g, coeffs, strict=False)(
            np.array([[u.coeffs, v.coeffs]])
        )[0]
        rows.append((k, n, float(ratio)))
    ratios = np.array([r for (_, _, r) in rows])
    monotone = bool(np.all(np.diff(ratios) > 0.0))
    slope = float(np.polyfit(np.log([k for (k, _, _) in rows]), np.log(ratios), 1)[0])
    return FailureDemo(s=s_negative, rows=tuple(rows), monotone=monotone, growth_exponent=slope)


def _trials_per_block(grid):
    """TRIAL_BLOCK on grids of up to 256 modes, fewer on finer ones (8 at n = 1024)."""
    return max(1, min(TRIAL_BLOCK, TRIAL_BLOCK * 256 // grid.n_modes))


def _campaign(lemma_id, grid, g, coeffs, combo):
    """(arity, kernel) of a campaign; arity 0 marks one field per trial, blocks (b, n)."""
    if lemma_id in MULTILINEAR:
        return MULTILINEAR[lemma_id][0], _multilinear_values(lemma_id, grid, g, coeffs)
    if lemma_id == "interpolation":
        if combo is None:
            raise ValueError("interpolation campaign requires combo = (s1, s2, theta)")
        return 0, _interpolation_values(grid, g.sigma, *combo)
    if lemma_id == "splitting_r1":
        parts = _splitting_parts(grid, g.s, 1.0, g.sigma)

        def ratios(c):
            lhs, sob, shifted = parts(c)
            rhs = sob + shifted
            return np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0.0)

        return 0, ratios
    if lemma_id == "antisymmetry":
        return 0, _antisymmetry_values(grid, coeffs)
    raise ValueError(f"unknown lemma_id {lemma_id!r}")


def run_trials(
    lemma_id: str,
    grid: SpectralGrid,
    g: GevreyIndex,
    coeffs: CoefficientSet,
    n_trials: int = 1000,
    seed: int = 0,
    profile: str = "band_limited",
    combo: tuple | None = None,
    **profile_kw,
) -> TrialReport | list[TrialReport]:
    """Run a seeded campaign and reduce to max/mean of the per-trial statistic.

    Per-trial seeds are spawned from one SeedSequence (a multilinear trial
    spawns one child per field), so the report is reproducible bit-for-bit
    and independent of any execution order.  Trials are evaluated in blocks
    of _trials_per_block(grid); the max is exact and the mean sums the
    per-trial values left to right, so the report equals the per-trial
    definition.  combo is the interpolation campaign's (s1, s2, theta), or a
    tuple of such combos: each block is then drawn once and evaluated for
    every combo, and the list of reports, one per combo, is returned.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    many = combo is not None and not np.isscalar(combo[0])
    combos = [tuple(c) for c in combo] if many else [combo]
    campaigns = [_campaign(lemma_id, grid, g, coeffs, one) for one in combos]
    arity = campaigns[0][0]
    children = np.random.SeedSequence(seed).spawn(n_trials)
    size = _trials_per_block(grid)
    values = [[] for _ in combos]
    for start in range(0, n_trials, size):
        block = children[start : start + size]
        if arity:
            kids = [kid for child in block for kid in child.spawn(arity)]
            c = random_fields(grid, profile, kids, **profile_kw).reshape(len(block), arity, -1)
        else:
            c = random_fields(grid, profile, block, **profile_kw)
        for (_, kernel), vals in zip(campaigns, values):
            vals.extend(kernel(c).tolist())
    reports = []
    for one, vals in zip(combos, values):
        config = {
            "n_modes": grid.n_modes,
            "half_length": grid.half_length,
            "sigma": g.sigma,
            "s": g.s,
            "profile": profile,
        }
        if one is not None:
            config["combo"] = tuple(one)
        config.update(profile_kw)
        reports.append(TrialReport(lemma_id, n_trials, max(vals), sum(vals) / n_trials, seed, config))
    return reports if many else reports[0]


def existence_constant(
    grid: SpectralGrid,
    g: GevreyIndex,
    coeffs: CoefficientSet,
    n_trials: int = 200,
    seed: int = 2024,
) -> float:
    """Empirical surrogate for the nonlinear-estimate constant C_s.

    The largest observed ratio across the three nonlinear estimates feeding
    the contraction argument (quadratic, cubic, derivative-square) at the
    given (sigma, s) and grid, on band-limited random fields.  Requires s >= 1.
    """
    if g.s < 1.0:
        raise ValueError(f"existence constant requires s >= 1, got s = {g.s}")
    worst = 0.0
    for lemma_id in ("bilinear_tau", "trilinear_psi", "derivsq_psi"):
        rep = run_trials(lemma_id, grid, g, coeffs, n_trials=n_trials, seed=seed)
        worst = max(worst, rep.ratio_max)
    return worst
